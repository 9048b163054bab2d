"""Artifact corruption: what the disk does to files between runs.

Reboot-path chaos (the ``kvs.rdb.bytes`` / ``kvs.aof.bytes`` sites)
damages the persistence artifacts *after* they were written and before
:func:`repro.kvs.recovery.recover` reads them back: single-bit rot,
truncation, and the classic torn AOF tail of a crash mid-append.

All damage is drawn from the fault plan's seeded RNG, so a corrupted
reboot replays bit-identically.  The helpers work on raw bytes (and,
for snapshots, on any file type built as ``type(payload=...,
entry_count=..., digest=...)``) so this module stays free of
key-value-store imports.
"""

from __future__ import annotations

from random import Random  # typing only; construction is banned outside repro.determinism

from repro.faults.plan import FaultSpec


def bitrot(data: bytes, rng: Random, nbytes: int = 1) -> bytes:
    """Flip one bit in each of ``nbytes`` random positions."""
    if not data or nbytes <= 0:
        return data
    buf = bytearray(data)
    for _ in range(nbytes):
        pos = rng.randrange(len(buf))
        buf[pos] ^= 1 << rng.randrange(8)
    return bytes(buf)


def truncate(data: bytes, rng: Random, max_cut: int = 64) -> bytes:
    """Drop a random non-zero number of trailing bytes (at most
    ``max_cut``, never the whole artifact)."""
    if len(data) <= 1:
        return data
    cut = rng.randrange(1, max(2, min(max_cut, len(data))))
    return data[: len(data) - cut]


def corrupt_snapshot(snapshot, spec: FaultSpec, rng: Random):
    """Apply a ``kvs.rdb.bytes`` fault to a snapshot file.

    Returns a *new* snapshot object (the original is left intact, like
    the good generation still sitting on disk).  The new file carries
    the original's digest, fixed from the original bytes before they are
    damaged, so it now disagrees with the payload — exactly what
    :func:`repro.kvs.rdb.verify` exists to catch.
    """
    digest = snapshot.digest
    payload = snapshot.payload
    if spec.kind == "bitrot":
        payload = bitrot(payload, rng, nbytes=max(1, spec.magnitude))
    elif spec.kind == "truncate":
        payload = truncate(payload, rng, max_cut=8 * max(1, spec.magnitude))
    else:
        raise ValueError(f"not a snapshot corruption kind: {spec.kind!r}")
    return type(snapshot)(
        payload=payload, entry_count=snapshot.entry_count, digest=digest
    )


def corrupt_aof_bytes(
    data: bytes, spec: FaultSpec, rng: Random
) -> bytes:
    """Apply a ``kvs.aof.bytes`` torn-tail fault to a serialized AOF.

    Models the crash-mid-append: the tail of the log is cut at an
    arbitrary byte position, usually mid-record.
    """
    if spec.kind != "torn-tail":
        raise ValueError(f"not an AOF corruption kind: {spec.kind!r}")
    return truncate(data, rng, max_cut=24 * max(1, spec.magnitude))
