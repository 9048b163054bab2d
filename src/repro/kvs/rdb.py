"""Point-in-time snapshot serialization (the RDB file).

A deliberately simple but complete binary format::

    magic 'SRDB' | u32 count | count * (u32 klen | key | u32 vlen | value)

The *content* matters to tests (the child must serialize exactly the
fork-time state); the *size* matters to the timing tier (persist duration
= bytes / disk bandwidth).  A forked child's snapshot file is its
finished keyspace walk (:class:`~repro.kvs.store.PageWalk`): it holds
the keys, the values' extents and the child's immutable page images, so
it knows its size and entry count at once, but packs, joins and hashes
its bytes only when a reader (recovery, a byte check) asks, and
persisting a snapshot costs none of that (:class:`SnapshotFile`).  A
file of (key, value) pairs (``DUMP``) packs at once.
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

#: A finished walk's entries: keys, value addresses, value lengths and
#: the walk's page images.
_Walked = tuple[list[bytes], np.ndarray, np.ndarray, dict[int, bytes]]


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _join(keys: list[bytes], values: list, lengths: list[int]) -> bytes:
    """The payload of entries ``(keys[i], values[i])``."""
    parts = zip(
        map(_pack_u32, map(len, keys)),
        keys,
        map(_pack_u32, lengths),
        values,
    )
    header = (MAGIC, _pack_u32(len(keys)))
    return b"".join(chain(header, chain.from_iterable(parts)))


class SnapshotFile:
    """An RDB-like snapshot image plus bookkeeping.

    A file from :func:`dump` of a child's walk holds the walk's entries
    by reference (keys, value extents and page images).
    :attr:`payload` packs and joins them on first read and drops them,
    and :attr:`digest` hashes those bytes on first need, so a snapshot
    nobody reads is never packed or hashed; :attr:`size` and
    :attr:`entry_count` are exact from the start.  Page images are
    immutable, so a late first read still sees the fork-time bytes.  A
    hand-built file (``SnapshotFile(payload=...)``) has no digest unless
    one is given.  A file never changes its payload: damage makes a new
    file that carries the original's digest
    (:func:`repro.faults.corrupt_snapshot`).
    """

    __slots__ = ("_walked", "_payload", "_digest", "size", "entry_count")

    def __init__(
        self,
        payload: bytes = b"",
        entry_count: int = 0,
        digest: Optional[str] = None,
    ) -> None:
        self._walked: Optional[_Walked] = None
        self._payload = payload
        self._digest = digest
        #: Bytes the child wrote to disk.
        self.size = len(payload)
        self.entry_count = entry_count

    @property
    def payload(self) -> bytes:
        """The file's bytes, packed and joined on first read."""
        if self._walked is not None:
            keys, starts, lengths, pages = self._walked
            values = page_values(starts, lengths, pages)
            payload = _join(keys, values, lengths.tolist())
            self._walked = None
            if len(payload) != self.size:
                raise RuntimeError(
                    f"packed {len(payload)} snapshot bytes, "
                    f"the walk counted {self.size}"
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


def dump(
    entries: Union[Iterable[tuple[bytes, bytes]], PageWalk],
) -> SnapshotFile:
    """Write a snapshot file: from a child's keyspace walk, which this
    finishes and whose values stay on their pages until the file is
    read, or from (key, value) pairs, packed at once.  Either way the
    digest is computed on first need."""
    if isinstance(entries, PageWalk):
        keys, starts, lengths, nbytes = entries.finish()
        snapshot = SnapshotFile(entry_count=len(keys), digest=_PENDING)
        snapshot._walked = (keys, starts, lengths, entries.pages)
        snapshot.size = 8 + nbytes
        return snapshot
    pairs = tuple(entries)
    values = list(map(_second, pairs))
    payload = _join(list(map(_first, pairs)), values, list(map(len, values)))
    return SnapshotFile(payload, len(pairs), _PENDING)


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
    try:
        (count,) = struct.unpack_from("<I", payload, 4)
        offset = 8
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
