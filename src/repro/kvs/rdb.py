"""Point-in-time snapshot serialization (the RDB file).

A deliberately simple but complete binary format::

    magic 'SRDB' | u32 count | count * (u32 klen | key | u32 vlen | value)

The *content* matters to tests (the child must serialize exactly the
fork-time state); the *size* matters to the timing tier (persist duration
= bytes / disk bandwidth).
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from repro.errors import CorruptSnapshotError

MAGIC = b"SRDB"
_pack_u32 = struct.Struct("<I").pack
_first, _second = itemgetter(0), itemgetter(1)


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


@dataclass
class SnapshotFile:
    """An RDB-like snapshot image plus bookkeeping."""

    payload: bytes = b""
    entry_count: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Bytes the child wrote to disk."""
        return len(self.payload)


class Writer:
    """One snapshot file, serialized over as many calls as the caller likes.

    :func:`dump` runs it in one call; the wire server's BGSAVE child runs
    it one byte-budgeted slice per served command (DESIGN.md §15).  Both
    produce the same payload and digest.

    Entries are packed as parts (length prefixes, keys, values) and the
    payload is joined once, at :meth:`close`.  Given the entry count up
    front, the header is final before any entry arrives, so every
    :meth:`write` feeds the digest with the parts it packed and the
    close has only the join left.  Without a count (a stream of unknown
    length) the header is filled in at close and the digest covers the
    joined payload there, through a memoryview: no extra copy.
    """

    def __init__(self, count: Optional[int] = None) -> None:
        self.count = count
        self._parts: list[bytes] = [MAGIC, b""]
        self._hash = hashlib.blake2b(digest_size=16)
        #: Payload bytes already fed to the digest.
        self._hashed = 0
        self.entry_count = 0
        #: Payload bytes packed so far (header included).
        self.size = 8
        if count is not None:
            self._parts[1] = _pack_u32(count)
            self._hash.update(MAGIC + self._parts[1])
            self._hashed = 8

    def write(self, entries: Iterable[tuple[bytes, bytes]]) -> int:
        """Pack (key, value) pairs; returns the payload bytes they took."""
        batch = tuple(entries)
        keys = tuple(map(_first, batch))
        values = tuple(map(_second, batch))
        packed = chain.from_iterable(
            zip(
                map(_pack_u32, map(len, keys)),
                keys,
                map(_pack_u32, map(len, values)),
                values,
            )
        )
        nbytes = 8 * len(keys) + sum(map(len, keys)) + sum(map(len, values))
        start = len(self._parts)
        self._parts += packed
        if self.count is not None:
            deque(map(self._hash.update, self._parts[start:]), maxlen=0)
            self._hashed += nbytes
        self.entry_count += len(keys)
        self.size += nbytes
        return nbytes

    def close(self) -> SnapshotFile:
        """Join the payload once and seal it with its digest."""
        if self.count is None:
            self._parts[1] = _pack_u32(self.entry_count)
        elif self.entry_count != self.count:
            raise ValueError(
                f"snapshot header promises {self.count} entries, "
                f"{self.entry_count} were written"
            )
        payload = b"".join(self._parts)
        self._parts = []
        self._hash.update(memoryview(payload)[self._hashed :])
        return SnapshotFile(
            payload=payload,
            entry_count=self.entry_count,
            meta={"digest": self._hash.hexdigest()},
        )


def dump(entries: Iterable[tuple[bytes, bytes]]) -> SnapshotFile:
    """Serialize (key, value) pairs into a snapshot file in one call."""
    writer = Writer()
    writer.write(entries)
    return writer.close()


def verify(snapshot: SnapshotFile) -> None:
    """Check the payload against the digest recorded at dump time.

    Raises :class:`~repro.errors.CorruptSnapshotError` on a mismatch
    (bit-rot, truncation).  Snapshots without a recorded digest —
    hand-built test fixtures — are only magic-checked.
    """
    payload = snapshot.payload
    if payload[:4] != MAGIC:
        raise CorruptSnapshotError("not a snapshot file")
    expected = snapshot.meta.get("digest")
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
