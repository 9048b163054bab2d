"""Point-in-time snapshot serialization (the RDB file).

A deliberately simple but complete binary format::

    magic 'SRDB' | u32 count | count * (u32 klen | key | u32 vlen | value)

The *content* matters to tests (the child must serialize exactly the
fork-time state); the *size* matters to the timing tier (persist duration
= bytes / disk bandwidth).  A written file knows its size and entry
count when it is closed, but packs, joins and hashes its bytes only when
a reader (recovery, ``DUMP``, a byte check) asks, so persisting a
snapshot costs none of that (:class:`SnapshotFile`).  A forked child's
snapshot does not even copy its values: the writer keeps the keys, the
values' extents and the child's immutable page images
(:class:`~repro.kvs.store.PageWalk`), and the file cuts the values out
of those images on first read.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from repro.errors import CorruptSnapshotError
from repro.kvs.store import PageWalk, page_values

MAGIC = b"SRDB"
_pack_u32 = struct.Struct("<I").pack
_first, _second = itemgetter(0), itemgetter(1)
#: A written file's digest before anyone has asked for it.
_PENDING = object()

#: Entries a writer took from a :class:`~repro.kvs.store.PageWalk`:
#: keys, value addresses, value lengths and the walk's page images.
_Paged = tuple[list[bytes], np.ndarray, np.ndarray, dict[int, bytes]]
#: What a writer holds per call: packed parts, or entries by reference.
_Piece = Union[list[bytes], _Paged]


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _pack(keys: list[bytes], values: list[bytes], lengths: list[int]):
    """The parts of entries ``(keys[i], values[i])``, in payload order."""
    return chain.from_iterable(
        zip(
            map(_pack_u32, map(len, keys)),
            keys,
            map(_pack_u32, lengths),
            values,
        )
    )


def _parts(piece: _Piece):
    if type(piece) is list:
        return piece
    keys, starts, lengths, pages = piece
    return _pack(keys, page_values(starts, lengths, pages), lengths.tolist())


class SnapshotFile:
    """An RDB-like snapshot image plus bookkeeping.

    A file from :meth:`Writer.close` holds what the writer kept: packed
    parts and, for a child's keyspace walk, entries by reference (keys,
    value extents and page images).  :attr:`payload` packs and joins
    them on first read and drops them, and :attr:`digest` hashes those
    bytes on first need, so a snapshot nobody reads is never packed or
    hashed; :attr:`size` and :attr:`entry_count` are exact from the
    start.  Page images are immutable, so a late first read still sees
    the fork-time bytes.  A hand-built file
    (``SnapshotFile(payload=...)``) has no digest unless one is given.
    A file never changes its payload: damage makes a new file that
    carries the original's digest (:func:`repro.faults.corrupt_snapshot`).
    """

    __slots__ = ("_pieces", "_payload", "_digest", "size", "entry_count")

    def __init__(
        self,
        payload: bytes = b"",
        entry_count: int = 0,
        digest: Optional[str] = None,
    ) -> None:
        self._pieces: Optional[list[_Piece]] = None
        self._payload = payload
        self._digest = digest
        #: Bytes the child wrote to disk.
        self.size = len(payload)
        self.entry_count = entry_count

    @property
    def payload(self) -> bytes:
        """The file's bytes, packed and joined on first read."""
        if self._pieces is not None:
            payload = b"".join(chain.from_iterable(map(_parts, self._pieces)))
            self._pieces = None
            if len(payload) != self.size:
                raise RuntimeError(
                    f"packed {len(payload)} snapshot bytes, "
                    f"the writer counted {self.size}"
                )
            self._payload = payload
        return self._payload

    @property
    def digest(self) -> Optional[str]:
        """blake2b of the file's bytes (``None`` for a hand-built file),
        computed on first need."""
        if self._digest is _PENDING:
            self._digest = _digest(self.payload)
        return self._digest


class Writer:
    """One snapshot file, written over as many calls as the caller likes.

    :func:`dump` runs it in one call; the wire server's BGSAVE child runs
    it one byte-budgeted slice per served command (DESIGN.md §15).  Both
    produce the same payload and digest.

    :meth:`write` packs (key, value) pairs into parts at once;
    :meth:`write_from` takes a child's keyspace walk by reference and
    packs nothing.  :meth:`close` hands what the writer holds and the
    size it counted to the file, which packs, joins and hashes only when
    a reader asks (:class:`SnapshotFile`).  Given the entry count up
    front, the header is final before any entry arrives; without one (a
    stream of unknown length) it is filled in at close.
    """

    def __init__(self, count: Optional[int] = None) -> None:
        self.count = count
        self._header = [MAGIC, b"" if count is None else _pack_u32(count)]
        self._pieces: list[_Piece] = [self._header]
        self.entry_count = 0
        #: Payload bytes written so far (header included).
        self.size = 8

    def write(self, entries: Iterable[tuple[bytes, bytes]]) -> int:
        """Pack (key, value) pairs; returns the payload bytes they took."""
        batch = tuple(entries)
        keys = list(map(_first, batch))
        values = list(map(_second, batch))
        lengths = list(map(len, values))
        self._pieces.append(list(_pack(keys, values, lengths)))
        nbytes = 8 * len(keys) + sum(map(len, keys)) + sum(lengths)
        return self._count(len(keys), nbytes)

    def write_from(self, walk: PageWalk, budget: Optional[int] = None) -> int:
        """Take the walk's next entries, up to ``budget`` payload bytes
        (all that are left by default), by reference; returns the
        payload bytes they took.  No value is copied: the cost is the
        walk planning those entries and reading their pages."""
        keys, starts, lengths, nbytes = walk.take(budget)
        if keys:
            self._pieces.append((keys, starts, lengths, walk.pages))
        return self._count(len(keys), nbytes)

    def _count(self, entries: int, nbytes: int) -> int:
        self.entry_count += entries
        self.size += nbytes
        return nbytes

    def close(self) -> SnapshotFile:
        """Seal the header and hand what the writer holds to the file."""
        if self.count is None:
            self._header[1] = _pack_u32(self.entry_count)
        elif self.entry_count != self.count:
            raise ValueError(
                f"snapshot header promises {self.count} entries, "
                f"{self.entry_count} were written"
            )
        snapshot = SnapshotFile(entry_count=self.entry_count, digest=_PENDING)
        snapshot._pieces, snapshot.size = self._pieces, self.size
        self._pieces = []
        return snapshot


def dump(
    entries: Union[Iterable[tuple[bytes, bytes]], PageWalk],
) -> SnapshotFile:
    """Write a snapshot file in one call: from (key, value) pairs, or
    from a child's keyspace walk, whose values stay on their pages until
    the file is read."""
    writer = Writer()
    if isinstance(entries, PageWalk):
        writer.write_from(entries)
    else:
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
