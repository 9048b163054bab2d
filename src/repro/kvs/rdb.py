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
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import CorruptSnapshotError

MAGIC = b"SRDB"
_pack_u32 = struct.Struct("<I").pack


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


def dump(entries: Iterable[tuple[bytes, bytes]]) -> SnapshotFile:
    """Serialize (key, value) pairs into a snapshot file."""
    parts = [MAGIC, b""]  # parts[1]: the count, set once known
    append = parts.append
    count = 0
    for key, value in entries:
        append(_pack_u32(len(key)))
        append(key)
        append(_pack_u32(len(value)))
        append(value)
        count += 1
    parts[1] = _pack_u32(count)
    payload = b"".join(parts)
    return SnapshotFile(
        payload=payload,
        entry_count=count,
        meta={"digest": _digest(payload)},
    )


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
