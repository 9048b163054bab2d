"""Scheduling policies, the coordinator, and cooperative supervision."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.cluster.cluster import SimCluster
from repro.cluster.coordinator import (
    DirtyPressurePolicy,
    SimultaneousPolicy,
    SnapshotCoordinator,
    StaggeredPolicy,
    make_policy,
)
from repro.core.async_fork import AsyncFork
from repro.errors import SnapshotChildError
from repro.faults import SITE_CHILD_COPY, SITE_FRAME_ALLOC, FaultPlan, FaultSpec
from repro.kvs.engine import KvEngine
from repro.kvs.supervisor import MODE_FALLBACK, SnapshotSupervisor
from repro.units import ms


def kill_children(engine, count: int) -> None:
    """End ``count`` BGSAVEs with a child sigkilled mid-copy (§4.4 case
    2): real job ends, each announced to the engine's listeners."""
    engine.attach_fault_plan(
        FaultPlan(seed=0, specs=[
            FaultSpec(site=SITE_CHILD_COPY, kind="sigkill", count=count)
        ])
    )
    for _ in range(count):
        job = engine.bgsave()
        with pytest.raises(SnapshotChildError):
            job.finish()
    engine.attach_fault_plan(None)


class TestSimultaneousPolicy:
    def test_all_shards_due_after_period(self):
        policy = SimultaneousPolicy(period_ns=ms(10))
        policy.bind(n_shards=3, start_ns=0)
        assert list(policy.due_shards(ms(5))) == []
        assert list(policy.due_shards(ms(10))) == [0, 1, 2]

    def test_round_repeats_each_period(self):
        policy = SimultaneousPolicy(period_ns=ms(10))
        policy.bind(n_shards=2, start_ns=0)
        for shard in policy.due_shards(ms(10)):
            policy.mark_started(shard, ms(10))
        assert list(policy.due_shards(ms(15))) == []
        assert list(policy.due_shards(ms(20))) == [0, 1]


class TestStaggeredPolicy:
    def test_shards_become_due_gap_apart(self):
        policy = StaggeredPolicy(period_ns=ms(12), stagger_ns=ms(3))
        policy.bind(n_shards=3, start_ns=0)
        assert list(policy.due_shards(ms(12))) == [0]
        policy.mark_started(0, ms(12))
        assert list(policy.due_shards(ms(14))) == []
        assert list(policy.due_shards(ms(15))) == [1]
        policy.mark_started(1, ms(15))
        assert list(policy.due_shards(ms(18))) == [2]

    def test_default_gap_spreads_the_round(self):
        policy = StaggeredPolicy(period_ns=ms(12))
        policy.bind(n_shards=4, start_ns=0)
        assert policy._gap_ns == ms(3)

    def test_next_round_starts_after_all_started(self):
        policy = StaggeredPolicy(period_ns=ms(10), stagger_ns=ms(1))
        policy.bind(n_shards=2, start_ns=0)
        policy.mark_started(0, ms(10))
        policy.mark_started(1, ms(11))
        assert list(policy.due_shards(ms(19))) == []
        assert list(policy.due_shards(ms(20))) == [0]


@dataclass
class _StubShard:
    shard_id: int
    dirty: int
    snapshotting: bool = False


@dataclass
class _StubCluster:
    shards: list


class TestDirtyPressurePolicy:
    def test_dirtiest_shard_over_threshold_wins(self):
        policy = DirtyPressurePolicy(threshold=100)
        policy.bind(n_shards=3, start_ns=0)
        policy.observe(
            _StubCluster([
                _StubShard(0, 40),
                _StubShard(1, 250),
                _StubShard(2, 120),
            ])
        )
        assert list(policy.due_shards(0)) == [1]

    def test_nothing_due_below_threshold(self):
        policy = DirtyPressurePolicy(threshold=100)
        policy.bind(n_shards=2, start_ns=0)
        policy.observe(_StubCluster([_StubShard(0, 10), _StubShard(1, 99)]))
        assert list(policy.due_shards(0)) == []

    def test_one_snapshot_at_a_time(self):
        policy = DirtyPressurePolicy(threshold=100)
        policy.bind(n_shards=2, start_ns=0)
        policy.observe(
            _StubCluster([
                _StubShard(0, 500, snapshotting=True),
                _StubShard(1, 400),
            ])
        )
        assert list(policy.due_shards(0)) == []


class TestMakePolicy:
    def test_known_names(self):
        for name in ("simultaneous", "staggered", "dirty-pressure"):
            policy = make_policy(
                name, period_ns=ms(10), n_shards=4, dirty_threshold=10
            )
            assert policy.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("adaptive", ms(10), 4, 10)


class TestCoordinator:
    def _drain(self, cluster):
        from repro.kvs.resp import encode_command

        for shard in cluster.shards:
            for _ in range(512):
                if not shard.snapshotting:
                    break
                shard.server.feed(encode_command("PING"))

    def test_simultaneous_round_triggers_every_shard(self):
        cluster = SimCluster(n_shards=3, method="async")
        for i in range(30):
            cluster.shard_for_key(f"k{i}").engine.set(f"k{i}", b"v")
        coord = SnapshotCoordinator(
            cluster, SimultaneousPolicy(period_ns=ms(10))
        )
        assert coord.tick() == []  # not due yet
        cluster.clock.advance(ms(10))
        started = coord.tick()
        assert sorted(e.shard_id for e in started) == [0, 1, 2]
        assert all(e.fork_ns > 0 for e in started)
        assert all(shard.snapshotting for shard in cluster.shards)
        self._drain(cluster)
        assert coord.rounds_completed() == 1
        assert all(
            len(shard.snapshot_windows) == 1 for shard in cluster.shards
        )

    def test_busy_shard_is_not_retriggered(self):
        cluster = SimCluster(n_shards=2, method="async")
        for i in range(40):
            cluster.shard_for_key(f"k{i}").engine.set(f"k{i}", b"x" * 4096)
        coord = SnapshotCoordinator(
            cluster, SimultaneousPolicy(period_ns=ms(1))
        )
        cluster.clock.advance(ms(1))
        first = coord.tick()
        cluster.clock.advance(ms(1))
        second = coord.tick()  # both shards still copying
        assert len(first) == 2
        assert second == []


class TestDemotedShardScheduling:
    """Dirty-pressure scheduling x supervisor demotion.

    A shard demoted to the default fork must not be scheduled as if it
    were still async: its trigger pays the full page-table-copy stall,
    which the coordinator's TriggerEvent must reflect.
    """

    def _drain(self, cluster):
        from repro.kvs.resp import encode_command

        for shard in cluster.shards:
            for _ in range(4096):
                if not shard.snapshotting:
                    break
                shard.server.feed(encode_command("PING"))

    def test_demoted_shard_pays_the_default_fork_stall(self):
        cluster = SimCluster(n_shards=2, method="async")
        # Same resident set on both shards, so fork cost differences
        # come from the engine mode alone.
        for shard in cluster.shards:
            for i in range(8000):
                shard.engine.set(b"k:%05d" % i, b"v" * 4096)
        # Shard 0 rolled back too often: the supervisor demoted it.
        demoted = cluster.shards[0]
        kill_children(demoted.engine, demoted.supervisor.fallback_after)
        assert demoted.mode == MODE_FALLBACK
        assert demoted.engine.fork_engine.name == "default"
        assert cluster.shards[1].mode == "async"

        # Make shard 0 the dirtiest so dirty-pressure schedules it
        # first, then shard 1 once the first save drains.
        demoted.engine.set(b"extra", b"v")
        coord = SnapshotCoordinator(
            cluster, DirtyPressurePolicy(threshold=1000)
        )
        (first,) = coord.tick()
        assert first.shard_id == 0
        self._drain(cluster)
        (second,) = coord.tick()
        assert second.shard_id == 1
        self._drain(cluster)
        # The demoted trigger stalled for the default fork's page-table
        # copy; the async shard's trigger did not.
        assert first.fork_ns > 3 * second.fork_ns
        # Clean completion repromotes: the shard is async again.
        assert demoted.mode == "async"
        assert demoted.engine.fork_engine.name == "async"


class TestCooperativeSupervision:
    def test_begin_save_returns_inflight_job(self):
        engine = KvEngine(fork_engine=AsyncFork())
        engine.set("k", b"v")
        supervisor = SnapshotSupervisor(engine)
        job = supervisor.begin_save()
        assert job is not None
        assert engine.active_job is job
        report = job.finish()
        assert report.file.entry_count == 1
        assert supervisor.consecutive_rollbacks == 0

    def test_begin_save_refuses_second_job(self):
        engine = KvEngine(fork_engine=AsyncFork())
        engine.set("k", b"v")
        supervisor = SnapshotSupervisor(engine)
        job = supervisor.begin_save()
        assert supervisor.begin_save() is None
        job.finish()

    def test_repeated_rollbacks_demote_the_engine(self):
        engine = KvEngine(fork_engine=AsyncFork())
        engine.set("k", b"v")
        supervisor = SnapshotSupervisor(engine, fallback_after=3)
        kill_children(engine, 3)
        assert supervisor.counters.job_failures == {"injected:sigkill": 3}
        assert supervisor.mode == MODE_FALLBACK
        assert engine.fork_engine.name == "default"

    def test_clean_completion_repromotes(self):
        engine = KvEngine(fork_engine=AsyncFork())
        engine.set("k", b"v")
        supervisor = SnapshotSupervisor(engine, fallback_after=1)
        # The first fork call rolls back (§4.4 case 1) and demotes; the
        # retry forks with the default engine.
        engine.attach_fault_plan(
            FaultPlan(seed=0, specs=[
                FaultSpec(
                    site=SITE_FRAME_ALLOC,
                    kind="oom",
                    count=1,
                    match=lambda d: d["purpose"].endswith("-table"),
                )
            ])
        )
        job = supervisor.begin_save()
        assert supervisor.counters.job_failures == {"parent-copy": 1}
        assert supervisor.mode == MODE_FALLBACK
        job.finish()
        assert supervisor.mode == "async"
        assert engine.fork_engine.name == "async"
