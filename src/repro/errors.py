"""Exception hierarchy for the simulated kernel and the key-value store.

The fork engines convert allocation failures into :class:`ForkError` after
performing the rollback described in §4.4 of the paper, so callers observe
the same contract as the real system call: either the fork fully succeeds or
the parent is restored to its pre-fork state.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """An invalid or unsupported configuration was requested.

    Raised, for example, when Async-fork is enabled together with
    transparent huge pages: the design reuses the PMD R/W bit, which is only
    free when the PMD never maps a huge page (§4.2 of the paper).
    """


class SimMemoryError(ReproError):
    """Base class for simulated memory-management failures."""


class OutOfMemoryError(SimMemoryError):
    """The simulated physical frame allocator is exhausted.

    Mirrors a failed page allocation in the kernel; the fork engines must
    roll back partially-copied page tables when they see this (§4.4).
    """


class InvalidAddressError(SimMemoryError):
    """An operation referenced a virtual address outside any VMA."""


class ProtectionFaultError(SimMemoryError):
    """A memory access violated the VMA protection bits."""


class ForkError(ReproError):
    """A fork operation failed after rolling the parent back."""

    def __init__(self, message: str, *, phase: str | None = None) -> None:
        super().__init__(message)
        #: Which phase failed: ``'parent-copy'``, ``'child-copy'`` or
        #: ``'proactive-sync'`` (the three error cases of §4.4).
        self.phase = phase


class DiskError(ReproError):
    """Base class for simulated storage-device failures."""


class DiskWriteError(DiskError):
    """A write to the simulated disk failed (media error, ENOSPC, ...).

    Injected by the fault plan at the ``sim.disk.write`` site; the
    persistence paths must surface or retry it, never lose the dataset.
    """


class FsyncFailedError(DiskError):
    """An fsync of the append-only file failed.

    Redis reacts to persistent AOF fsync failures by refusing further
    writes (the MISCONF behaviour); the supervision layer mirrors that.
    """


class NetworkPartitionError(ReproError):
    """The simulated client<->server link is partitioned."""


class KvsError(ReproError):
    """Base class for key-value-store level failures."""


class SnapshotInProgressError(KvsError):
    """A blocking snapshot request raced with one already running."""


class CorruptSnapshotError(KvsError, ValueError):
    """An RDB snapshot file failed validation (bad magic, torn payload,
    or digest mismatch).

    Also a :class:`ValueError` so pre-existing callers that caught the
    old ``ValueError`` from :func:`repro.kvs.rdb.load` keep working.
    """


class CorruptAofError(KvsError, ValueError):
    """A serialized append-only file is damaged (torn tail, bad frame).

    Raised by :func:`repro.kvs.aof.decode` unless the caller opts into
    the Redis-style ``aof-load-truncated`` repair, which drops the torn
    tail instead.
    """


class SnapshotChildError(KvsError, RuntimeError):
    """A background snapshot/rewrite child failed after the fork.

    Subclasses :class:`RuntimeError` for compatibility with the previous
    untyped failure signalling in :mod:`repro.kvs.engine`.
    """

    def __init__(self, message: str, *, reason: str | None = None) -> None:
        super().__init__(message)
        #: The fork session's ``failure_reason`` (e.g. ``'child-copy'``).
        self.reason = reason


class SnapshotWatchdogError(SnapshotChildError):
    """The supervision watchdog aborted a snapshot child that made no
    copy progress within its step budget (a hung PTE-table lock)."""


class WritesRefusedError(KvsError):
    """The engine is refusing writes after persistent save failures.

    Mirrors Redis's ``MISCONF Errors writing to the AOF file / RDB
    snapshot`` behaviour: reads still work, writes fail until a
    persistence operation succeeds again.
    """


class TooManyRedirectsError(KvsError):
    """A routed command chased MOVED redirects past the client's bound.

    A misrouted or mutually-stale slot map (two shards each claiming
    the other owns a slot — possible transiently after a reshard or a
    failover promotion) would otherwise bounce a command forever; the
    cluster client caps the hops and raises this instead.
    """

    def __init__(
        self, message: str, *, command: bytes = b"", redirects: int = 0
    ) -> None:
        super().__init__(message)
        #: The command name that kept bouncing.
        self.command = command
        #: MOVED hops followed before giving up.
        self.redirects = redirects


class UnroutableCommandError(KvsError):
    """A command with arguments has no key spec and is not known keyless.

    The cluster client refuses to guess: before this check, any command
    missing from ``COMMAND_KEY_SPEC`` (``INCR``, ``MSET``, ``EXPIRE``,
    ...) was silently treated as keyless and sent to shard 0 — a
    mis-route that turns into lost writes the moment slots move.
    """

    def __init__(self, message: str, *, command: bytes = b"") -> None:
        super().__init__(message)
        #: The command name that could not be routed.
        self.command = command


class ReplicationError(KvsError):
    """Base class for replication-layer failures."""


class NoReplicasError(ReplicationError):
    """A write was refused by the min-replicas gate.

    Mirrors Redis's ``NOREPLICAS Not enough good replicas to write``:
    with ``min-replicas-to-write`` configured, a master whose healthy
    (connected, low-lag) replica count falls below the floor refuses
    writes rather than accepting data that a failover could lose.
    """


class MasterDownError(ReplicationError):
    """A command reached a master that is no longer alive."""


class StaleSyncError(ReplicationError):
    """A PSYNC could not be satisfied partially or fully.

    Raised when the replica's offset has fallen off the backlog *and*
    the full-resync path failed (every supervised fork attempt rolled
    back, or the RDB ship was cut) — the replica stays detached.
    """


class AnalysisError(ReproError):
    """Base class for failures reported by the correctness checkers."""


class MmsanViolationError(AnalysisError):
    """MMSAN found at least one violated memory-management invariant."""

    def __init__(self, message: str, violations: list | None = None) -> None:
        super().__init__(message)
        #: The :class:`repro.analysis.mmsan.MmsanViolation` records.
        self.violations = list(violations or [])


class SnapshotConsistencyError(AnalysisError):
    """The child's snapshot diverged from the fork-time fingerprint."""

    def __init__(self, message: str, mismatches: list | None = None) -> None:
        super().__init__(message)
        #: The :class:`repro.analysis.oracle.SnapshotMismatch` records.
        self.mismatches = list(mismatches or [])


class LockOrderError(AnalysisError):
    """lockdep-lite observed an inverted or doubly-held lock order."""

    def __init__(self, message: str, violation: object | None = None) -> None:
        super().__init__(message)
        #: The :class:`repro.analysis.lockdep.LockOrderViolation` record.
        self.violation = violation


class DataRaceError(AnalysisError):
    """The happens-before race detector found conflicting accesses."""

    def __init__(self, message: str, races: list | None = None) -> None:
        super().__init__(message)
        #: The :class:`repro.analysis.race.RaceReport` records.
        self.races = list(races or [])
