"""Point-in-time snapshot serialization (the RDB file).

A deliberately simple but complete binary format::

    magic 'SRDB' | u32 count | count * (u32 klen | key | u32 vlen | value)

The *content* matters to tests (the child must serialize exactly the
fork-time state); the *size* matters to the timing tier (persist duration
= bytes / disk bandwidth).  A written file knows its size when it is
closed; it joins its bytes and computes its digest only when a reader
(recovery, ``DUMP``, a byte check) asks, so persisting a snapshot costs
neither (:class:`SnapshotFile`).
"""

from __future__ import annotations

import hashlib
import struct
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from repro.errors import CorruptSnapshotError

MAGIC = b"SRDB"
_pack_u32 = struct.Struct("<I").pack
_first, _second = itemgetter(0), itemgetter(1)
#: A written file's digest before anyone has asked for it.
_PENDING = object()


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class SnapshotFile:
    """An RDB-like snapshot image plus bookkeeping.

    A file from :meth:`Writer.close` holds the parts the writer packed.
    :attr:`payload` joins them on first read and drops them, and
    :attr:`digest` hashes those original bytes on first need, so a
    snapshot nobody reads is never joined or hashed.  A hand-built file
    (``SnapshotFile(payload=...)``) has no digest unless one is given.
    A file never changes its payload: damage makes a new file that
    carries the original's digest (:func:`repro.faults.corrupt_snapshot`).
    """

    __slots__ = ("_parts", "_payload", "_digest", "size", "entry_count")

    def __init__(
        self,
        payload: bytes = b"",
        entry_count: int = 0,
        digest: Optional[str] = None,
    ) -> None:
        self._parts: Optional[list[bytes]] = None
        self._payload = payload
        self._digest = digest
        #: Bytes the child wrote to disk.
        self.size = len(payload)
        self.entry_count = entry_count

    @property
    def payload(self) -> bytes:
        """The file's bytes, joined from the writer's parts on first read."""
        if self._parts is not None:
            self._payload = b"".join(self._parts)
            self._parts = None
        return self._payload

    @property
    def digest(self) -> Optional[str]:
        """blake2b of the bytes the writer packed (``None`` for a
        hand-built file), computed on first need."""
        if self._digest is _PENDING:
            self._digest = _digest(self.payload)
        return self._digest


class Writer:
    """One snapshot file, serialized over as many calls as the caller likes.

    :func:`dump` runs it in one call; the wire server's BGSAVE child runs
    it one byte-budgeted slice per served command (DESIGN.md §15).  Both
    produce the same payload and digest.

    Entries are packed as parts (length prefixes, keys, values), and
    :meth:`close` hands the parts and their size to the file without
    joining or hashing them: the file does both only when a reader asks
    (:class:`SnapshotFile`).  Given the entry count up front, the header
    is final before any entry arrives; without one (a stream of unknown
    length) it is filled in at close.
    """

    def __init__(self, count: Optional[int] = None) -> None:
        self.count = count
        self._parts: list[bytes] = [MAGIC, b""]
        self.entry_count = 0
        #: Payload bytes packed so far (header included).
        self.size = 8
        if count is not None:
            self._parts[1] = _pack_u32(count)

    def write(self, entries: Iterable[tuple[bytes, bytes]]) -> int:
        """Pack (key, value) pairs; returns the payload bytes they took."""
        batch = tuple(entries)
        keys = tuple(map(_first, batch))
        values = tuple(map(_second, batch))
        self._parts += chain.from_iterable(
            zip(
                map(_pack_u32, map(len, keys)),
                keys,
                map(_pack_u32, map(len, values)),
                values,
            )
        )
        nbytes = 8 * len(keys) + sum(map(len, keys)) + sum(map(len, values))
        self.entry_count += len(keys)
        self.size += nbytes
        return nbytes

    def close(self) -> SnapshotFile:
        """Seal the header and hand the packed parts to the file."""
        if self.count is None:
            self._parts[1] = _pack_u32(self.entry_count)
        elif self.entry_count != self.count:
            raise ValueError(
                f"snapshot header promises {self.count} entries, "
                f"{self.entry_count} were written"
            )
        snapshot = SnapshotFile(entry_count=self.entry_count, digest=_PENDING)
        snapshot._parts, snapshot.size = self._parts, self.size
        self._parts = []
        return snapshot


def dump(entries: Iterable[tuple[bytes, bytes]]) -> SnapshotFile:
    """Serialize (key, value) pairs into a snapshot file in one call."""
    writer = Writer()
    writer.write(entries)
    return writer.close()


def verify(snapshot: SnapshotFile) -> None:
    """Hash the payload and check it against the file's digest.

    Every call hashes the payload it checks.  A written file whose
    digest nobody has asked for yet is hashed once: its digest is by
    definition the hash of these same bytes, so that hash becomes the
    digest.  Raises :class:`~repro.errors.CorruptSnapshotError` on a
    mismatch (bit-rot, truncation).  Snapshots without a digest —
    hand-built test fixtures — are only magic-checked.
    """
    payload = snapshot.payload
    if payload[:4] != MAGIC:
        raise CorruptSnapshotError("not a snapshot file")
    if snapshot._digest is _PENDING:
        snapshot._digest = _digest(payload)
        return
    expected = snapshot._digest
    if expected is not None and _digest(payload) != expected:
        raise CorruptSnapshotError(
            "snapshot payload does not match its recorded digest"
        )


def load(snapshot: SnapshotFile) -> Iterator[tuple[bytes, bytes]]:
    """Parse a snapshot file back into (key, value) pairs.

    Raises :class:`~repro.errors.CorruptSnapshotError` (a ``ValueError``
    subclass, so old callers' expectations hold) on digest mismatch or a
    payload too damaged to parse.
    """
    verify(snapshot)
    payload = snapshot.payload
    (count,) = struct.unpack_from("<I", payload, 4)
    offset = 8
    try:
        for _ in range(count):
            (klen,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            key = payload[offset : offset + klen]
            offset += klen
            if len(key) != klen:
                raise CorruptSnapshotError("snapshot truncated inside a key")
            (vlen,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            value = payload[offset : offset + vlen]
            offset += vlen
            if len(value) != vlen:
                raise CorruptSnapshotError(
                    "snapshot truncated inside a value"
                )
            yield key, value
    except struct.error as exc:
        raise CorruptSnapshotError(f"snapshot truncated: {exc}") from exc
