"""The storage engine: a Redis-like server on the simulated kernel.

One engine owns one :class:`~repro.kernel.task.Process` whose heap holds
the values.  ``BGSAVE`` and ``BGREWRITEAOF`` fork that process through a
pluggable fork engine — :class:`~repro.kernel.forks.default.DefaultFork`,
:class:`~repro.kernel.forks.odf.OnDemandFork` or
:class:`~repro.core.async_fork.AsyncFork` — and hand the IO-heavy work to
the child, exactly like the real systems.

Child work is *cooperative*: ``SnapshotJob.step_child()`` advances the
child's page-table copy (Async-fork) by one step so tests can interleave
parent queries at any granularity.  The child serializes by walking
its keyspace (:class:`~repro.kvs.store.PageWalk`), and the snapshot
file is the finished walk (:func:`repro.kvs.rdb.dump`).
``SnapshotJob.finish()`` completes the copy, walks whatever is left and
makes the file in one call, which is what the simulated servers do at
the reap.  ``SnapshotJob.write_slice(budget)`` walks one byte-budgeted
slice per call, so a server that shares its thread with the child (the
live wire server) spends at most about one slice per command on it; the
payload and digest are the same either way.

The engine alone records the in-flight job (:attr:`KvEngine.active_job`,
Redis's ``child_pid``), whoever started it, and every fork's stall in
its ``latency`` monitor, as Redis's ``redisFork()`` does.  It announces
each such job's end, a rolled-back fork call included, once to its
``job_listeners``, whoever ended it; the job's own ``step_child`` is
the watchdog, whoever steps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import EngineConfig
from repro.errors import (
    ForkError,
    SnapshotChildError,
    SnapshotInProgressError,
    WritesRefusedError,
)
from repro.faults.plan import FaultPlan
from repro.kernel.clock import Clock
from repro.kernel.forks.base import ForkEngine, ForkResult
from repro.kernel.forks.default import DefaultFork
from repro.kernel.task import Process
from repro.kvs import aof as aof_mod
from repro.kvs import rdb
from repro.kvs.latency_monitor import LatencyMonitor
from repro.kvs.store import KvStore, PageWalk, ValueRef
from repro.mem.frames import FrameAllocator
from repro.obs import tracer as obs
from repro.sim.disk import DiskDevice
from repro.units import PAGE_SIZE


@dataclass
class SnapshotReport:
    """Outcome of one completed snapshot."""

    file: rdb.SnapshotFile
    fork_call_ns: int
    child_tables_copied: int = 0
    proactive_syncs: int = 0
    table_faults: int = 0
    #: Simulated duration of the child's disk write.
    persist_ns: int = 0


class ForkJob:
    """A forked background job (BGSAVE or BGREWRITEAOF) in flight.

    Shared mechanics: cooperative child stepping, the session failure
    contract (:class:`~repro.kernel.forks.base.ForkSession` — no more
    ``getattr`` probing), and uniform retirement through
    ``session.cancel()`` so every engine undoes its sharing/marker state
    before the child goes away.  ``result`` is ``None`` if the fork
    call rolled back.
    """

    #: Label used in failure messages ('snapshot' / 'rewrite').
    kind = "fork"

    def __init__(
        self,
        engine: "KvEngine",
        result: Optional[ForkResult],
        table: dict[bytes, ValueRef],
    ) -> None:
        self.engine = engine
        self.result = result
        self._table = table
        self.done = False
        #: Why the job was aborted, if it was.
        self.failure_reason: Optional[str] = None
        self._steps = 0

    @property
    def child(self) -> Process:
        """The forked child doing the background work."""
        return self.result.child

    @property
    def failed(self) -> bool:
        """Whether the job's fork session died (§4.4) or it was aborted."""
        if self.failure_reason is not None:
            return True
        session = self.result.session
        return session is not None and session.failed

    def step_child(self) -> int:
        """Advance the child's page-table copy one step (Async-fork),
        or SIGKILL the child if its copy outran the engine's
        ``watchdog_steps`` (a hang, a lost wakeup)."""
        session = self.result.session
        if session is None:
            return 0
        budget = self.engine.watchdog_steps
        if budget is not None and not session.copy_done and not session.failed:
            if self._steps > budget:
                if obs.ACTIVE:
                    obs.emit_instant(
                        "kvs.watchdog.kill",
                        obs.CAT_KVS,
                        self.engine.clock.now,
                        kind=self.kind,
                        steps=self._steps,
                    )
                self.abort(reason="watchdog-timeout")
                return 0
            self._steps += 1
        return session.child_step()

    @property
    def child_copy_done(self) -> bool:
        """Whether the child needs no more cooperative parent help.

        The default fork copies everything inside the call and ODF
        copies lazily on faults, so both children can serialize right
        away; only Async-fork has an in-flight copy to wait out.
        """
        session = self.result.session
        return session is None or session.copy_done

    def _drain_child(self) -> None:
        """Run the copy to completion; raise if the session died."""
        session = self.result.session
        if session is not None:
            session.run_to_completion()
            if session.failed:
                self.abort(reason=session.failure_reason)
                self._raise_failure()

    def _raise_failure(self) -> None:
        reason = self.failure_reason
        raise SnapshotChildError(
            f"{self.kind} child failed: {reason}", reason=reason
        )

    def abort(self, reason: Optional[str] = None) -> None:
        """Tear the job down after a failure (or a watchdog kill)."""
        if reason is not None and self.failure_reason is None:
            self.failure_reason = reason
        if obs.ACTIVE:
            obs.emit_instant(
                "kvs.job.abort",
                obs.CAT_KVS,
                self.engine.clock.now,
                kind=self.kind,
                reason=reason or self.failure_reason or "?",
            )
        session = self.result.session
        if session is not None and not session.failed and reason is not None:
            session.mark_failed(reason)
        self._retire()

    def _retire(self) -> None:
        """Let the child go, free the slot and announce the end (once)."""
        session = self.result.session
        if session is not None:
            # Close two-way pointers / drop sharing and clear leftover
            # copied-markers before the child goes away, so a later
            # snapshot never syncs into a dead address space.
            session.cancel()
        if self.child.alive:
            self.child.exit()
        self.done = True
        if self.engine._active_job is self:
            self.engine._active_job = None
            for listener in self.engine.job_listeners:
                listener(self)


class SnapshotJob(ForkJob):
    """A BGSAVE in flight."""

    kind = "snapshot"

    def __init__(
        self,
        engine: "KvEngine",
        result: ForkResult,
        table: dict[bytes, ValueRef],
        dirty_at_fork: int = 0,
    ) -> None:
        super().__init__(engine, result, table)
        self.report: Optional[SnapshotReport] = None
        #: Writes the fork point absorbed from the dirty counter; given
        #: back on a §4.4 rollback/abort so the save point re-fires.
        self._dirty_at_fork = dirty_at_fork
        #: The child's keyspace walk, once :meth:`write_slice` opened it.
        self._walk: Optional[PageWalk] = None

    def abort(self, reason: Optional[str] = None) -> None:
        """Tear the job down; un-absorb the fork point's dirty count."""
        if self._dirty_at_fork and self.report is None:
            self.engine.store.dirty_since_save += self._dirty_at_fork
            self._dirty_at_fork = 0
        self._walk = None
        super().abort(reason=reason)

    @property
    def serialized(self) -> bool:
        """Whether :meth:`write_slice` has walked every entry."""
        return self._walk is not None and self._walk.done

    def write_slice(self, budget: int) -> int:
        """Take one step of the sliced serialization; returns bytes written.

        The resumable form of :meth:`finish`'s serialization, for a
        server that must spend no more than about one slice's time per
        command on the child (the wire server, DESIGN.md §15).  The
        first call waits out the child's copy and opens the keyspace
        walk (:class:`~repro.kvs.store.PageWalk`), planning nothing yet.
        Each later call takes the entries that fit in ``budget`` payload
        bytes (more only when one entry alone is larger): the walk plans
        just those entries and reads the pages they touch, at most
        ``budget`` bytes of pages per ``read_pages`` call, copying no
        value.  Once the walk has taken every entry, :attr:`serialized`
        is true and :meth:`finish` makes the file of the finished walk,
        persists and retires.  The file packs its bytes when first read.
        Any failure aborts the job and re-raises.
        """
        try:
            if self._walk is None:
                self._drain_child()
                self._walk = PageWalk(
                    self.child.mm,
                    self._table,
                    chunk_pages=max(1, budget // PAGE_SIZE),
                )
                return 0
            keys, _, _, nbytes = self._walk.take(budget)
        except Exception:
            if not self.done:
                self.abort(reason="serialize")
            raise
        if obs.ACTIVE:
            obs.emit_instant(
                "kvs.snapshot.slice",
                obs.CAT_KVS,
                self.engine.clock.now,
                keys=len(keys),
                bytes=nbytes,
            )
        return nbytes

    def finish(self) -> SnapshotReport:
        """Complete the copy, serialize what is left, retire the child.

        A retired job returns its report or raises its failure again.
        """
        if self.done:
            if self.report is None:
                self._raise_failure()
            return self.report
        if self._walk is None:  # one-shot
            self._drain_child()
            self._walk = PageWalk(self.child.mm, self._table)
        snapshot = rdb.dump(self._walk)
        self._walk = None
        try:
            persist_ns = self.engine.disk.write(snapshot.size, what="rdb")
        except Exception:
            self.abort(reason="disk-write")
            raise
        stats = self.result.stats
        self.report = SnapshotReport(
            file=snapshot,
            fork_call_ns=stats.parent_call_ns,
            child_tables_copied=stats.child_tables_copied,
            proactive_syncs=stats.proactive_syncs,
            table_faults=stats.table_faults,
            persist_ns=persist_ns,
        )
        if obs.ACTIVE:
            obs.emit_instant(
                "kvs.snapshot.finish",
                obs.CAT_KVS,
                self.engine.clock.now,
                bytes=snapshot.size,
                persist_ns=persist_ns,
                tables_copied=stats.child_tables_copied,
            )
        self._retire()
        return self.report


class RewriteJob(ForkJob):
    """A BGREWRITEAOF in flight (same fork mechanics as BGSAVE)."""

    kind = "rewrite"
    #: The rewritten log, once the rewrite completed.
    rewritten: Optional[aof_mod.AppendOnlyFile] = None

    def finish(self) -> aof_mod.AppendOnlyFile:
        """Build the compact log and splice in the rewrite buffer.

        A retired job returns its log or raises its failure again.
        """
        if self.done:
            if self.rewritten is None:
                self._raise_failure()
            return self.rewritten
        self._drain_child()
        compact = list(
            aof_mod.compact_commands(
                PageWalk(self.child.mm, self._table).items()
            )
        )
        try:
            self.engine.disk.write(
                sum(r.encoded_size() for r in compact), what="aof-rewrite"
            )
        except Exception:
            self.abort(reason="disk-write")
            raise
        assert self.engine.aof is not None
        self.rewritten = self.engine.aof.complete_rewrite(compact)
        self._retire()
        return self.rewritten

    def abort(self, reason: Optional[str] = None) -> None:
        """Tear the job down after a failure."""
        if self.engine.aof is not None and self.engine.aof.rewriting:
            self.engine.aof.abort_rewrite()
        super().abort(reason=reason)


class KvEngine:
    """Single-threaded Redis-like engine."""

    def __init__(
        self,
        fork_engine: Optional[ForkEngine] = None,
        config: EngineConfig = EngineConfig(),
        frames: Optional[FrameAllocator] = None,
        name: str = "redis",
    ) -> None:
        self.config = config
        self.frames = frames if frames is not None else FrameAllocator()
        self.process = Process(self.frames, name=name)
        self.store = KvStore(self.process.mm)
        self.fork_engine = (
            fork_engine if fork_engine is not None else DefaultFork()
        )
        self.aof: Optional[aof_mod.AppendOnlyFile] = (
            aof_mod.AppendOnlyFile() if config.aof_enabled else None
        )
        #: The disk the background children persist through.
        self.disk = DiskDevice()
        self._active_job: Optional[ForkJob] = None
        #: ``fn(job)`` per retired job of the slot or rolled-back fork
        #: call; ``job.failure_reason`` is ``None`` for a clean end.
        self.job_listeners: list[Callable[[ForkJob], None]] = []
        #: Set by the supervisor: the watchdog's step budget.
        self.watchdog_steps: Optional[int] = None
        #: Redis's LATENCY framework: every fork call is a sample ([43]).
        self.latency = LatencyMonitor(threshold_ms=0.01)
        self.commands_processed = 0
        #: MISCONF-style state: persistent save failures disable writes
        #: (toggled by the supervision layer, not by the engine itself).
        self.writes_refused = False
        #: Write commands rejected while in that state.
        self.refused_write_count = 0
        #: Set by :mod:`repro.kvs.recovery` when this engine was booted
        #: from persistence artifacts.
        self.last_recovery = None
        #: Optional hook ``fn(op, key, value_or_None)`` fired after every
        #: accepted write — the replication master propagates through it
        #: so server-path and direct writes replicate alike.
        self.on_write: Optional[Callable] = None
        #: Optional gate invoked before every write; raising (e.g.
        #: :class:`~repro.errors.NoReplicasError`) refuses the command.
        #: The replication layer installs its min-replicas check here.
        self.write_gate: Optional[Callable] = None
        #: Key -> absolute expiry deadline on the simulated clock.
        #: Eviction is lazy (checked on access, like Redis's read path);
        #: an evicted key routes through the AOF/``on_write`` machinery
        #: as a DEL so persistence and replication observe it.
        self._expires: dict[bytes, int] = {}

    @property
    def active_job(self) -> Optional[ForkJob]:
        """The in-flight BGSAVE/BGREWRITEAOF, whoever started it."""
        return self._active_job

    @property
    def clock(self) -> Clock:
        """The simulated clock (owned by the fork engine)."""
        return self.fork_engine.clock

    def metrics_snapshot(self) -> dict:
        """One dict of every layer's metrics, under dotted names.

        Aggregates the per-object :class:`~repro.obs.registry.
        MetricsRegistry` instances (``mm.*``, ``tlb.*``, ``frames.*``)
        plus the engine/disk counters that predate the registry, sorted
        by name (see DESIGN.md for the naming scheme).
        """
        snap: dict = {}
        snap.update(self.process.mm.metrics.snapshot())
        snap.update(self.process.mm.tlb.metrics.snapshot())
        snap.update(self.frames.metrics.snapshot())
        snap["disk.bytes_written"] = self.disk.bytes_written
        snap["disk.writes"] = self.disk.writes
        snap["engine.commands"] = self.commands_processed
        snap["engine.refused_writes"] = self.refused_write_count
        return dict(sorted(snap.items()))

    def attach_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Wire one chaos plan through every injectable layer at once:
        frame allocation, the fork engine's child copier, the disk, and
        the AOF fsync path."""
        self.frames.attach_fault_plan(plan)
        self.fork_engine.attach_fault_plan(plan)
        self.disk.fault_plan = plan
        if self.aof is not None:
            self.aof.fault_plan = plan

    # -- commands ----------------------------------------------------------

    def _check_writes_allowed(self) -> None:
        if self.writes_refused:
            self.refused_write_count += 1
            raise WritesRefusedError(
                "MISCONF: background saving is failing; "
                "writes are disabled until a save succeeds"
            )
        if self.write_gate is not None:
            self.write_gate()

    @staticmethod
    def _normalize_key(key) -> bytes:
        return key.encode() if isinstance(key, str) else bytes(key)

    def _evict_if_expired(self, key: bytes) -> bool:
        """Lazily evict one key whose deadline has passed.

        Runs *before* the writes-allowed gate: expiry is server-internal
        housekeeping, not a client write, but it still flows through the
        AOF and ``on_write`` as a DEL so persistence/replication agree.
        """
        if not self._expires:
            return False
        deadline = self._expires.get(key)
        if deadline is None or self.clock.now < deadline:
            return False
        del self._expires[key]
        if self.store.delete(key):
            if self.aof is not None:
                self.aof.append(aof_mod.AofRecord("DEL", key))
            if self.on_write is not None:
                self.on_write("DEL", key, None)
        return True

    def set(self, key, value: bytes) -> None:
        """SET key value (clears any TTL, like Redis's plain SET)."""
        self._check_writes_allowed()
        normalized = self._normalize_key(key)
        data = value.encode() if isinstance(value, str) else value
        self.store.set(normalized, data)
        self._expires.pop(normalized, None)
        if self.aof is not None:
            self.aof.append(aof_mod.AofRecord("SET", normalized, data))
        self.commands_processed += 1
        if self.on_write is not None:
            self.on_write("SET", normalized, data)

    def get(self, key) -> Optional[bytes]:
        """GET key."""
        self.commands_processed += 1
        normalized = self._normalize_key(key)
        if self._evict_if_expired(normalized):
            return None
        return self.store.get(normalized)

    def exists(self, key) -> bool:
        """EXISTS key (expiry-aware)."""
        normalized = self._normalize_key(key)
        if self._evict_if_expired(normalized):
            return False
        return normalized in self.store

    def delete(self, key) -> bool:
        """DEL key."""
        self._check_writes_allowed()
        normalized = self._normalize_key(key)
        if self._evict_if_expired(normalized):
            return False
        self._expires.pop(normalized, None)
        existed = self.store.delete(normalized)
        if self.aof is not None and existed:
            self.aof.append(aof_mod.AofRecord("DEL", normalized))
        self.commands_processed += 1
        if existed and self.on_write is not None:
            self.on_write("DEL", normalized, None)
        return existed

    # -- expiry ----------------------------------------------------------

    def expire_at(self, key, deadline_ns: int) -> bool:
        """Arm a TTL as an absolute simulated-clock deadline.

        Returns ``False`` when the key does not exist (the EXPIRE
        contract).  A deadline at or before *now* deletes immediately,
        matching Redis's ``EXPIRE key 0``.
        """
        self._check_writes_allowed()
        normalized = self._normalize_key(key)
        if self._evict_if_expired(normalized):
            return False
        if normalized not in self.store:
            return False
        self._expires[normalized] = deadline_ns
        if deadline_ns <= self.clock.now:
            self._evict_if_expired(normalized)
        return True

    def ttl_ns(self, key) -> int:
        """Remaining TTL in ns; ``-1`` — no TTL, ``-2`` — no such key."""
        normalized = self._normalize_key(key)
        if self._evict_if_expired(normalized):
            return -2
        if normalized not in self.store:
            return -2
        deadline = self._expires.get(normalized)
        if deadline is None:
            return -1
        return deadline - self.clock.now

    def persist(self, key) -> bool:
        """Drop a key's TTL; returns whether a TTL was removed."""
        normalized = self._normalize_key(key)
        if self._evict_if_expired(normalized):
            return False
        return self._expires.pop(normalized, None) is not None

    # -- persistence ----------------------------------------------------------

    def _fork_job(self, job_type: type, **job_args) -> ForkJob:
        """Table snapshot, fork (a ``fork`` latency sample), job."""
        table = self.store.table_snapshot()
        result = self.fork_engine.fork(self.process)
        self.latency.record(
            "fork", result.stats.parent_call_ns, at_ns=self.clock.now
        )
        return job_type(self, result, table, **job_args)

    def _start_job(self, job_type: type, **job_args) -> ForkJob:
        """Fork a job into the slot; a rolled-back fork call (§4.4) is
        announced as a job that failed in its phase, then re-raised."""
        try:
            self._active_job = self._fork_job(job_type, **job_args)
        except ForkError as exc:
            job = job_type(self, None, {})
            job.failure_reason = exc.phase
            job.done = True
            for listener in self.job_listeners:
                listener(job)
            raise
        return self._active_job

    def bgsave(self) -> SnapshotJob:
        """Fork a child to take a point-in-time snapshot (BGSAVE)."""
        if self._active_job is not None:
            raise SnapshotInProgressError("a background job is running")
        if obs.ACTIVE:
            obs.emit_instant(
                "kvs.bgsave",
                obs.CAT_KVS,
                self.clock.now,
                engine=self.fork_engine.name,
                keys=len(self.store),
            )
        job = self._start_job(
            SnapshotJob, dirty_at_fork=self.store.dirty_since_save
        )
        # Redis resets server.dirty when the BGSAVE *starts*: writes
        # landing during the snapshot window count toward the *next*
        # save point, not the one this fork just satisfied.
        self.store.dirty_since_save = 0
        return job

    def bgrewriteaof(self) -> RewriteJob:
        """Fork a child to rewrite the AOF (BGREWRITEAOF)."""
        if self.aof is None:
            raise ValueError("AOF is not enabled on this engine")
        if self._active_job is not None:
            raise SnapshotInProgressError("a background job is running")
        if obs.ACTIVE:
            obs.emit_instant(
                "kvs.bgrewriteaof",
                obs.CAT_KVS,
                self.clock.now,
                engine=self.fork_engine.name,
            )
        job = self._start_job(RewriteJob)
        self.aof.begin_rewrite()  # no write lands inside the fork call
        return job

    def snapshot_worker(self) -> SnapshotJob:
        """Fork a snapshot child *outside* the single BGSAVE slot.

        This is the HyPer use case of §2.2: OLAP workers each hold a
        fork snapshot while OLTP continues in the parent.  Several
        workers may exist at once; under Async-fork a new fork
        proactively completes the previous child's page-table copy
        (the consecutive-snapshots rule of §5.2), so the workers'
        snapshots stay mutually consistent.
        """
        return self._fork_job(SnapshotJob)

    def save_now(self) -> SnapshotReport:
        """Convenience: BGSAVE and immediately finish the child's work."""
        return self.bgsave().finish()
