"""Append-only-file persistence and BGREWRITEAOF (Appendix C).

Redis's second persistence mechanism logs every write command; replaying
the log reconstructs the dataset.  The log grows without bound, so the
engine periodically *rewrites* it: ``fork()`` a child that serializes the
current dataset as the shortest equivalent command sequence, while the
parent keeps appending new commands to a buffer that is concatenated when
the child finishes.  Because it forks, log rewriting suffers the same
latency spikes as BGSAVE — Figure 21 measures exactly that — and benefits
from Async-fork identically.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.errors import CorruptAofError, FsyncFailedError
from repro.faults.plan import SITE_AOF_FSYNC, FaultPlan


@dataclass
class AofRecord:
    """One logged write command."""

    op: str  # 'SET' or 'DEL'
    key: bytes
    value: Optional[bytes] = None

    def encoded_size(self) -> int:
        """Approximate on-disk size of the record."""
        return (
            len(self.op)
            + len(self.key)
            + (len(self.value) if self.value is not None else 0)
            + 16  # framing overhead
        )


@dataclass
class AppendOnlyFile:
    """The AOF log: an ordered command stream."""

    records: list[AofRecord] = field(default_factory=list)
    #: Commands appended while a rewrite is running (the rewrite buffer).
    rewrite_buffer: list[AofRecord] = field(default_factory=list)
    rewriting: bool = False
    #: Chaos plan injecting at the ``kvs.aof.fsync`` site.
    fault_plan: Optional[FaultPlan] = None
    #: Records appended since the last successful :meth:`fsync`.
    unsynced: int = 0
    #: Successful fsyncs performed.
    fsyncs: int = 0

    def append(self, record: AofRecord) -> None:
        """Log one write; routed to the rewrite buffer during a rewrite."""
        if self.rewriting:
            self.rewrite_buffer.append(record)
        self.records.append(record)
        self.unsynced += 1

    def fsync(self) -> None:
        """Flush appended records to stable storage.

        Raises :class:`~repro.errors.FsyncFailedError` when the fault
        plan schedules an ``fsync-error``; the engine's supervision
        layer reacts by refusing writes, like Redis's MISCONF state.
        """
        if self.fault_plan is not None:
            spec = self.fault_plan.fire(
                SITE_AOF_FSYNC, unsynced=self.unsynced
            )
            if spec is not None:
                raise FsyncFailedError(
                    f"injected fsync failure ({self.unsynced} unsynced "
                    "record(s))"
                )
        self.unsynced = 0
        self.fsyncs += 1

    @property
    def size(self) -> int:
        """Current log size in bytes."""
        return sum(r.encoded_size() for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    # -- rewrite protocol --------------------------------------------------

    def begin_rewrite(self) -> None:
        """Parent side: start buffering (called right after the fork)."""
        if self.rewriting:
            raise RuntimeError("AOF rewrite already in progress")
        self.rewriting = True
        self.rewrite_buffer = []

    def complete_rewrite(
        self, compact: Iterable[AofRecord]
    ) -> "AppendOnlyFile":
        """Install the child's compact log + the buffered tail."""
        if not self.rewriting:
            raise RuntimeError("no AOF rewrite in progress")
        new_records = list(compact) + list(self.rewrite_buffer)
        self.records = new_records
        self.rewrite_buffer = []
        self.rewriting = False
        return self

    def abort_rewrite(self) -> None:
        """Drop rewrite state after a failed fork/rewrite."""
        self.rewriting = False
        self.rewrite_buffer = []


def compact_commands(
    entries: Iterable[tuple[bytes, bytes]]
) -> Iterator[AofRecord]:
    """The child's rewrite: one SET per live key."""
    for key, value in entries:
        yield AofRecord("SET", key, value)


# -- on-disk form ----------------------------------------------------------

#: Record framing: op byte, key length, value length (-1 = no value).
_FRAME = struct.Struct("<BII")
_OPS = {"SET": 1, "DEL": 2}
_OPS_REV = {code: op for op, code in _OPS.items()}
_NO_VALUE = 0xFFFFFFFF


def encode(log: AppendOnlyFile) -> bytes:
    """Serialize the log to its on-disk byte form."""
    parts: list[bytes] = []
    for record in log.records:
        value = record.value
        vlen = _NO_VALUE if value is None else len(value)
        op = _OPS.get(record.op)
        if op is None:
            raise ValueError(f"unknown AOF op {record.op!r}")
        parts.append(_FRAME.pack(op, len(record.key), vlen))
        parts.append(record.key)
        if value is not None:
            parts.append(value)
    return b"".join(parts)


def decode(
    data: bytes, repair: bool = False
) -> tuple[AppendOnlyFile, int]:
    """Parse an on-disk AOF back into a log.

    Returns ``(log, dropped_bytes)``.  A torn tail — the crash-mid-
    append case — either raises :class:`~repro.errors.CorruptAofError`
    (``repair=False``) or, like Redis with ``aof-load-truncated yes``,
    is dropped and every complete record before it is kept
    (``repair=True``, ``dropped_bytes`` reports the loss).
    """
    records: list[AofRecord] = []
    offset = 0
    total = len(data)
    while offset < total:
        start = offset
        if offset + _FRAME.size > total:
            return _torn(data, records, start, repair, "torn frame header")
        op_code, klen, vlen = _FRAME.unpack_from(data, offset)
        offset += _FRAME.size
        op = _OPS_REV.get(op_code)
        if op is None:
            return _torn(
                data, records, start, repair, f"bad op byte {op_code:#x}"
            )
        if offset + klen > total:
            return _torn(data, records, start, repair, "torn key")
        key = data[offset : offset + klen]
        offset += klen
        value = None
        if vlen != _NO_VALUE:
            if offset + vlen > total:
                return _torn(data, records, start, repair, "torn value")
            value = data[offset : offset + vlen]
            offset += vlen
        if op == "SET" and value is None:
            return _torn(data, records, start, repair, "SET without value")
        records.append(AofRecord(op, key, value))
    return AppendOnlyFile(records=records), 0


def _torn(
    data: bytes,
    records: list[AofRecord],
    start: int,
    repair: bool,
    why: str,
) -> tuple[AppendOnlyFile, int]:
    dropped = len(data) - start
    if not repair:
        raise CorruptAofError(
            f"AOF damaged at byte {start}: {why} "
            f"({dropped} trailing byte(s); pass repair=True to truncate)"
        )
    return AppendOnlyFile(records=records), dropped


def replay(records: Iterable[AofRecord]) -> dict[bytes, bytes]:
    """Reconstruct the dataset from a log (used at simulated reboot)."""
    data: dict[bytes, bytes] = {}
    for record in records:
        if record.op == "SET":
            assert record.value is not None
            data[record.key] = record.value
        elif record.op == "DEL":
            data.pop(record.key, None)
        else:
            raise ValueError(f"unknown AOF op {record.op!r}")
    return data
