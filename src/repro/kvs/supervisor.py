"""Snapshot supervision: retry, watchdog, and graceful degradation.

Production Redis does not simply crash when BGSAVE fails — it retries,
refuses writes when persistence keeps failing (the MISCONF error), and
operators fall back to safer configurations when a mechanism misbehaves.
:class:`SnapshotSupervisor` gives the simulated engine the same
survival instincts, which is what the chaos experiments drive:

* **Retry with backoff** — a failed BGSAVE/BGREWRITEAOF is retried up
  to ``BackoffPolicy.max_attempts`` times, sleeping (on the simulated
  clock) an exponentially growing, jittered delay between attempts so
  a transient fault (one OOM, one disk error) costs one retry, not an
  outage.
* **Watchdog** — a child whose copy threads stop making progress (an
  injected ``hang``, a lost wakeup) is SIGKILLed after a bounded number
  of cooperative steps instead of wedging the engine forever, wherever
  the job is stepped (the budget is the engine's ``watchdog_steps``).
* **Degradation state machine** — after ``fallback_after`` consecutive
  §4.4 rollbacks the engine stops trusting Async-fork and demotes to
  the default fork (the paper's own escape hatch: ``F=0`` through the
  cgroup interface, §5.2).  The next clean snapshot re-promotes it.
  Exhausting every retry puts the engine in the writes-refused state
  until a snapshot or fsync succeeds, mirroring Redis's MISCONF.

The state machine hears every job's end from the engine, whoever
drove the job; the retry loops here only retry.  One engine has one
supervisor.

Every decision is counted in a :class:`~repro.metrics.faults.
FaultCounters` ledger so experiments can assert "every injected fault
was recovered from or surfaced".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.errors import (
    DiskError,
    ForkError,
    SnapshotChildError,
    SnapshotInProgressError,
)
from repro.faults.plan import FaultPlan
from repro.kernel.forks.base import ForkEngine
from repro.kernel.forks.default import DefaultFork
from repro.kvs.aof import AppendOnlyFile
from repro.kvs.engine import ForkJob, KvEngine, SnapshotReport
from repro.metrics.faults import FaultCounters
from repro.obs import tracer as obs
from repro.units import ms

#: Degradation modes (what `fork_engine` the engine currently runs).
MODE_ASYNC = "async"
MODE_FALLBACK = "fallback"

#: Failures of the disk or of the whole master, not of the fork.
_NOT_ROLLBACKS = ("disk-write", "master-sigkill")


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential-backoff schedule for snapshot retries."""

    base_ns: int = ms(50)
    factor: float = 2.0
    max_ns: int = ms(800)
    max_attempts: int = 4
    #: Jitter spread passed to :meth:`FaultPlan.jitter_ns` (0 = none).
    jitter: float = 0.5

    def delay_ns(self, attempt: int) -> int:
        """Backoff (pre-jitter) before retry number ``attempt`` (0-based)."""
        return min(int(self.base_ns * self.factor**attempt), self.max_ns)


class SnapshotSupervisor:
    """Retries, watches, and degrades one engine's background saves."""

    def __init__(
        self,
        engine: KvEngine,
        policy: BackoffPolicy = BackoffPolicy(),
        watchdog_steps: int = 2048,
        fallback_after: int = 3,
        plan: Optional[FaultPlan] = None,
        counters: Optional[FaultCounters] = None,
        on_child_step: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.engine = engine
        self.policy = policy
        engine.watchdog_steps = watchdog_steps
        #: Consecutive §4.4 rollbacks that trigger the async->default
        #: demotion (the K of the degradation state machine).
        self.fallback_after = fallback_after
        self.plan = plan
        self.counters = counters if counters is not None else FaultCounters()
        #: Called after every cooperative child step while a snapshot is
        #: being watched — the hook chaos workloads use to interleave
        #: parent writes with the child's copy.
        self.on_child_step = on_child_step
        self.consecutive_rollbacks = 0
        #: The engine trusted when healthy (usually Async-fork).
        self._primary: ForkEngine = engine.fork_engine
        self._fallback: Optional[ForkEngine] = None
        self.mode = (
            MODE_ASYNC if self._primary.name == "async" else MODE_FALLBACK
        )
        self.counters.record_mode(engine.clock.now, self.mode)
        engine.job_listeners.append(self._job_ended)

    # -- supervised operations ---------------------------------------------

    def save(self) -> Optional[SnapshotReport]:
        """BGSAVE with retry/backoff/watchdog.

        Returns the report of the first attempt that completes, or
        ``None`` after every attempt failed — at which point the engine
        is refusing writes.
        """
        return self._supervised(self.engine.bgsave)

    def rewrite(self) -> Optional[AppendOnlyFile]:
        """BGREWRITEAOF under the same supervision as :meth:`save`."""
        return self._supervised(self.engine.bgrewriteaof)

    def begin_save(self) -> Optional[ForkJob]:
        """Start a supervised BGSAVE without draining it.

        :meth:`save` forks *and* runs the child to completion inline,
        which is right for chaos workloads but wrong for an event loop:
        serverCron (or the cluster coordinator) wants the fork call
        supervised — retried under the backoff policy — while the child
        is drained cooperatively, one step per served command.

        Returns the in-flight job, or ``None`` when a job is already
        running or every fork attempt failed (writes are then refused).
        """
        for attempt in range(self.policy.max_attempts):
            try:
                return self.engine.bgsave()
            except SnapshotInProgressError:
                return None
            except ForkError:
                pass  # §4.4 rollback inside the fork call itself
            if attempt + 1 < self.policy.max_attempts:
                self._backoff(attempt)
        self._refuse_writes()
        return None

    def fsync(self) -> bool:
        """Supervised AOF fsync.

        One failure is enough to refuse writes (there is no child to
        retry — the log is on a broken disk); a later success clears
        the state, like Redis re-enabling writes once the AOF fsync
        stops erroring.
        """
        if self.engine.aof is None:
            return True
        try:
            self.engine.aof.fsync()
        except DiskError:
            self.counters.record_job_failure("fsync")
            self._refuse_writes()
            return False
        # A clean fsync re-enables writes, but only a clean *snapshot*
        # re-promotes the fork engine.
        self._clear_refusal()
        return True

    # -- the retry loop ----------------------------------------------------

    def _supervised(
        self, fork: Callable[[], ForkJob]
    ) -> Optional[Union[SnapshotReport, AppendOnlyFile]]:
        for attempt in range(self.policy.max_attempts):
            try:
                job = fork()
                self._watch(job)
                return job.finish()
            except (ForkError, SnapshotChildError, DiskError):
                pass  # the engine announced the failed job
            if attempt + 1 < self.policy.max_attempts:
                self._backoff(attempt)
        self._refuse_writes()
        return None

    def _watch(self, job: ForkJob) -> None:
        """Drive the child's copy cooperatively (``step_child`` kills a
        hung child; ``job.finish()`` then raises)."""
        session = job.result.session
        if session is None:
            return
        steps = 0
        while not session.copy_done and not session.failed:
            job.step_child()
            steps += 1
            if (
                self.on_child_step is not None
                and not job.done
                and not session.copy_done
            ):
                self.on_child_step(steps)

    def _backoff(self, attempt: int) -> None:
        delay = self.policy.delay_ns(attempt)
        if self.plan is not None and self.policy.jitter > 0:
            delay = self.plan.jitter_ns(delay, spread=self.policy.jitter)
        start = self.engine.clock.now
        self.engine.clock.advance(delay)
        if obs.ACTIVE:
            obs.emit(
                "kvs.retry.backoff",
                obs.CAT_KVS,
                start,
                start + delay,
                attempt=attempt,
            )
        self.counters.retries += 1
        self.counters.backoff_ns += delay

    # -- the degradation state machine -------------------------------------

    def _job_ended(self, job: ForkJob) -> None:
        """The state machine's one input: a job end the engine announced."""
        reason = job.failure_reason
        if reason is None:
            self._note_success()
        elif reason in _NOT_ROLLBACKS:
            self.counters.record_job_failure(reason)
        else:
            # The fork machinery failed: that counts toward demotion.
            if reason == "watchdog-timeout":
                self.counters.watchdog_kills += 1
            self._note_rollback(reason)

    def _note_rollback(self, reason: str) -> None:
        self.counters.record_job_failure(reason)
        self.consecutive_rollbacks += 1
        if (
            self.mode == MODE_ASYNC
            and self.consecutive_rollbacks >= self.fallback_after
        ):
            self._demote()

    def _clear_refusal(self) -> None:
        if self.engine.writes_refused:
            self.engine.writes_refused = False
            self.counters.record_recovery("writes-reenabled")

    def _note_success(self) -> None:
        self.consecutive_rollbacks = 0
        self._clear_refusal()
        if self.mode == MODE_FALLBACK and self._primary.name == "async":
            self._promote()

    def _demote(self) -> None:
        """Stop trusting Async-fork; snapshot with the default fork."""
        if self._fallback is None:
            self._fallback = DefaultFork(
                clock=self._primary.clock, costs=self._primary.costs
            )
        self.engine.fork_engine = self._fallback
        self.mode = MODE_FALLBACK
        self.counters.fallbacks += 1
        self.counters.record_mode(self.engine.clock.now, MODE_FALLBACK)
        if obs.ACTIVE:
            obs.emit_instant(
                "kvs.demote",
                obs.CAT_KVS,
                self.engine.clock.now,
                rollbacks=self.consecutive_rollbacks,
            )

    def _promote(self) -> None:
        """A clean snapshot in fallback mode restores the primary."""
        self.engine.fork_engine = self._primary
        self.mode = MODE_ASYNC
        self.consecutive_rollbacks = 0
        self.counters.promotions += 1
        self.counters.record_mode(self.engine.clock.now, MODE_ASYNC)
        if obs.ACTIVE:
            obs.emit_instant(
                "kvs.promote", obs.CAT_KVS, self.engine.clock.now
            )

    def _refuse_writes(self) -> None:
        if not self.engine.writes_refused:
            self.engine.writes_refused = True
            self.counters.refusal_episodes += 1

    # -- reading -----------------------------------------------------------

    def ledger(self) -> FaultCounters:
        """The counters, synced with the plan's journal and the engine's
        refused-write count."""
        if self.plan is not None:
            recorded = sum(self.counters.faults_by_site.values())
            for event in self.plan.events[recorded:]:
                self.counters.record_fault(event.site, event.kind)
        self.counters.writes_refused = self.engine.refused_write_count
        return self.counters
