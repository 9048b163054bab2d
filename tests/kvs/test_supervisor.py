"""Snapshot supervision: retry, watchdog, degradation, writes-refused."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.async_fork import AsyncFork
from repro.core.policy import FORK_METHODS, make_fork_engine
from repro.errors import SnapshotChildError, WritesRefusedError
from repro.faults import (
    SITE_AOF_FSYNC,
    SITE_CHILD_COPY,
    SITE_DISK_WRITE,
    SITE_FRAME_ALLOC,
    FaultPlan,
    FaultSpec,
)
from repro.kernel.forks.default import DefaultFork
from repro.kvs.engine import KvEngine
from repro.kvs.supervisor import (
    MODE_ASYNC,
    MODE_FALLBACK,
    BackoffPolicy,
    SnapshotSupervisor,
)


def make_engine(keys: int = 16) -> KvEngine:
    engine = KvEngine(
        AsyncFork(),
        config=EngineConfig(aof_enabled=True, value_size=64),
        name="sup",
    )
    for i in range(keys):
        engine.set(f"k{i}", bytes([i % 251]) * 64)
    return engine


def supervised(engine, plan, **kwargs) -> SnapshotSupervisor:
    engine.attach_fault_plan(plan)
    kwargs.setdefault("policy", BackoffPolicy(max_attempts=4))
    return SnapshotSupervisor(engine, plan=plan, **kwargs)


class TestRetry:
    def test_transient_disk_error_is_retried(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        plan.add(FaultSpec(site=SITE_DISK_WRITE, kind="io-error", count=1))
        supervisor = supervised(engine, plan)
        before = engine.clock.now

        report = supervisor.save()

        assert report is not None and report.file.entry_count == 16
        assert supervisor.counters.retries == 1
        assert supervisor.counters.job_failures == {"disk-write": 1}
        assert supervisor.counters.backoff_ns > 0
        assert engine.clock.now > before
        assert not engine.writes_refused

    def test_backoff_grows_and_caps(self):
        policy = BackoffPolicy(base_ns=100, factor=2.0, max_ns=350)
        delays = [policy.delay_ns(a) for a in range(4)]
        assert delays == [100, 200, 350, 350]

    def test_rewrite_retries_after_fork_failure(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        # Fail the fork call itself (§4.4 case 1) exactly once.
        plan.add(
            FaultSpec(
                site=SITE_FRAME_ALLOC,
                kind="oom",
                count=1,
                match=lambda d: d["purpose"].endswith("-table")
                or d["purpose"] == "pgd",
            )
        )
        supervisor = supervised(engine, plan)

        log = supervisor.rewrite()

        # The aborted attempt must drop its rewrite buffer, or the retry
        # dies on "rewrite already in progress".
        assert log is not None and not log.rewriting
        assert supervisor.counters.job_failures == {"parent-copy": 1}


class TestEveryForkMethod:
    """A clean supervised job completes under every engine.

    The watchdog waits for the child's copy, not for the session to
    retire: an ODF session stays active until the job does.
    """

    @pytest.mark.parametrize("kind", ["save", "rewrite"])
    @pytest.mark.parametrize("method", FORK_METHODS)
    def test_supervised_job_completes(self, method, kind):
        engine = KvEngine(
            make_fork_engine(method),
            config=EngineConfig(aof_enabled=True, value_size=64),
            name="sup",
        )
        for i in range(200):
            engine.set(f"k{i}", bytes([i % 251]) * 64)
        supervisor = SnapshotSupervisor(engine)

        outcome = getattr(supervisor, kind)()

        assert outcome is not None
        if kind == "save":
            assert outcome.file.entry_count == 200
        assert supervisor.counters.watchdog_kills == 0
        assert supervisor.counters.job_failures == {}
        assert not engine.writes_refused
        assert engine.active_job is None


class TestWatchdog:
    def test_hung_child_is_killed_and_retried(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        plan.add(
            FaultSpec(
                site=SITE_CHILD_COPY, kind="hang", count=1, magnitude=10_000
            )
        )
        supervisor = supervised(engine, plan, watchdog_steps=16)

        report = supervisor.save()

        assert report is not None
        assert supervisor.counters.watchdog_kills == 1
        assert supervisor.counters.job_failures == {"watchdog-timeout": 1}
        assert engine.active_job is None


    def test_hung_rewrite_child_is_killed_and_retried(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        plan.add(
            FaultSpec(
                site=SITE_CHILD_COPY, kind="hang", count=1, magnitude=10_000
            )
        )
        supervisor = supervised(engine, plan, watchdog_steps=16)
        jobs = []
        fork = engine.bgrewriteaof
        engine.bgrewriteaof = lambda: jobs.append(fork()) or jobs[-1]

        log = supervisor.rewrite()

        assert log is not None and not log.rewriting
        assert supervisor.counters.job_failures == {"watchdog-timeout": 1}
        killed, retried = jobs
        # The killed job stays failed; only the retry produced the log.
        with pytest.raises(SnapshotChildError, match="watchdog-timeout"):
            killed.finish()
        assert retried.finish() is log


class TestDegradation:
    def test_demotes_after_k_rollbacks_then_promotes(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        plan.add(FaultSpec(site=SITE_CHILD_COPY, kind="sigkill", count=2))
        supervisor = supervised(engine, plan, fallback_after=2)
        primary = engine.fork_engine

        report = supervisor.save()

        # Two sigkilled children demoted to the default fork; its clean
        # snapshot immediately re-promoted Async-fork.
        assert report is not None
        assert supervisor.counters.job_failures == {"injected:sigkill": 2}
        assert supervisor.counters.fallbacks == 1
        assert supervisor.counters.promotions == 1
        assert supervisor.mode == MODE_ASYNC
        assert engine.fork_engine is primary

    def test_stays_demoted_until_a_clean_save(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        plan.add(FaultSpec(site=SITE_CHILD_COPY, kind="sigkill", count=2))
        supervisor = supervised(
            engine, plan, fallback_after=2, policy=BackoffPolicy(max_attempts=2)
        )

        assert supervisor.save() is None  # both attempts sigkilled
        assert supervisor.mode == MODE_FALLBACK
        assert isinstance(engine.fork_engine, DefaultFork)
        assert engine.writes_refused

        report = supervisor.save()  # specs exhausted: clean fallback save

        assert report is not None
        assert supervisor.mode == MODE_ASYNC
        assert not engine.writes_refused
        assert supervisor.counters.recoveries == {"writes-reenabled": 1}

    def test_mode_timeline_records_transitions(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        plan.add(FaultSpec(site=SITE_CHILD_COPY, kind="sigkill", count=2))
        supervisor = supervised(engine, plan, fallback_after=2)
        supervisor.save()
        modes = [mode for _, mode in supervisor.counters.mode_timeline]
        assert modes == [MODE_ASYNC, MODE_FALLBACK, MODE_ASYNC]


class TestWritesRefused:
    def test_exhausted_retries_refuse_writes(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        plan.add(
            FaultSpec(site=SITE_DISK_WRITE, kind="io-error", count=None)
        )
        supervisor = supervised(engine, plan)

        assert supervisor.save() is None
        assert engine.writes_refused
        assert supervisor.counters.refusal_episodes == 1
        with pytest.raises(WritesRefusedError, match="MISCONF"):
            engine.set("blocked", b"x")
        with pytest.raises(WritesRefusedError):
            engine.delete("k0")
        assert engine.refused_write_count == 2
        assert engine.get("k0") is not None  # reads still served

        engine.attach_fault_plan(None)  # the disk heals
        assert supervisor.save() is not None
        assert not engine.writes_refused
        engine.set("unblocked", b"x")

    def test_fsync_failure_refuses_then_success_reenables(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        plan.add(
            FaultSpec(site=SITE_AOF_FSYNC, kind="fsync-error", count=1)
        )
        supervisor = supervised(engine, plan)

        assert supervisor.fsync() is False
        assert engine.writes_refused
        assert supervisor.counters.job_failures == {"fsync": 1}

        assert supervisor.fsync() is True
        assert not engine.writes_refused
        # A clean fsync re-enables writes but must NOT count as the
        # clean snapshot that re-promotes the fork engine.
        assert supervisor.counters.promotions == 0


class TestLedger:
    def test_ledger_syncs_plan_journal_and_refusals(self):
        engine = make_engine()
        plan = FaultPlan(seed=1)
        plan.add(FaultSpec(site=SITE_DISK_WRITE, kind="io-error", count=1))
        supervisor = supervised(engine, plan)
        supervisor.save()

        ledger = supervisor.ledger()

        assert ledger.faults_by_site == {SITE_DISK_WRITE: 1}
        assert ledger.faults_by_kind == {"io-error": 1}
        assert ledger.total_faults == 1
        assert ledger.writes_refused == engine.refused_write_count
        # Calling it again must not double-count the journal.
        assert supervisor.ledger().total_faults == 1
        assert "disk-write" in ledger.as_table().render()
