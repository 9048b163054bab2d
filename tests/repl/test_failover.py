"""Tests for failure detection, election, promotion, and slot repair."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimCluster
from repro.core.policy import make_fork_engine
from repro.config import EngineConfig
from repro.errors import ReplicationError
from repro.faults.plan import SITE_AOF_BYTES, FaultPlan, FaultSpec
from repro.kernel.clock import Clock
from repro.kvs.engine import KvEngine
from repro.kvs.supervisor import SnapshotSupervisor
from repro.repl import (
    FailoverCoordinator,
    FailureDetector,
    ReplLink,
    ReplicaNode,
    ReplicationMaster,
    promote_into_cluster,
)
from repro.units import ms, us


def make_master(seed: int = 0, **kwargs):
    clock = Clock()
    engine = KvEngine(
        fork_engine=make_fork_engine("async", clock),
        config=EngineConfig(aof_enabled=True),
    )
    master = ReplicationMaster(
        engine,
        supervisor=SnapshotSupervisor(engine),
        seed=seed,
        heartbeat_interval_ns=us(50),
        **kwargs,
    )
    return master, clock


def attach_synced_replica(master, clock, name):
    node = ReplicaNode(name, clock, stale_after_ns=us(100))
    session = master.add_replica(node, ReplLink(name=name))
    master.full_sync(session)
    return node, session


class TestDetector:
    def test_single_silent_replica_is_not_objective_down(self):
        clock = Clock()
        nodes = [ReplicaNode(f"r{i}", clock) for i in range(2)]
        detector = FailureDetector(nodes, timeout_ns=us(200), quorum=2)
        clock.advance(ms(1))
        nodes[0].heartbeat(clock.now)  # r0 still hears the master
        assert detector.suspecting(clock.now) == ["r1"]
        assert not detector.check(clock.now)
        assert detector.down_since is None
        for node in nodes:
            node.close()

    def test_quorum_silence_trips_and_healing_clears(self):
        clock = Clock()
        nodes = [ReplicaNode(f"r{i}", clock) for i in range(2)]
        detector = FailureDetector(nodes, timeout_ns=us(200), quorum=2)
        clock.advance(ms(1))
        assert detector.check(clock.now)
        assert detector.down_since == clock.now
        # Heartbeats resume: the verdict was a healed partition.
        for node in nodes:
            node.heartbeat(clock.now)
        assert not detector.check(clock.now)
        assert detector.down_since is None
        for node in nodes:
            node.close()

    def test_quorum_is_clamped_and_validated(self):
        clock = Clock()
        node = ReplicaNode("r0", clock)
        detector = FailureDetector([node], timeout_ns=us(200), quorum=5)
        assert detector.quorum == 1
        with pytest.raises(ValueError, match="quorum"):
            FailureDetector([node], quorum=0)
        node.close()


class TestElection:
    def test_highest_offset_wins_and_ties_break_on_name(self):
        master, clock = make_master()
        master.engine.set(b"k", b"v")
        behind, session_b = attach_synced_replica(master, clock, "behind")
        ahead, _ = attach_synced_replica(master, clock, "ahead")
        zeta, _ = attach_synced_replica(master, clock, "zeta")
        session_b.connected = False  # "behind" misses the next write
        master.engine.set(b"k2", b"v2")
        detector = FailureDetector([ahead, behind, zeta])
        coordinator = FailoverCoordinator(master, detector)
        # "ahead" and "zeta" share the top offset; the name decides.
        assert ahead.applied_offset == zeta.applied_offset
        assert coordinator.elect() is ahead
        for node in (behind, ahead, zeta):
            node.close()

    def test_dead_replicas_are_not_candidates(self):
        master, clock = make_master()
        r0, _ = attach_synced_replica(master, clock, "r0")
        r1, _ = attach_synced_replica(master, clock, "r1")
        master.engine.set(b"k", b"v")
        r0.close()  # best offset, but its process is gone
        detector = FailureDetector([r1])
        coordinator = FailoverCoordinator(master, detector)
        assert coordinator.elect() is r1
        r1.close()
        with pytest.raises(ReplicationError, match="no replica"):
            coordinator.elect()


class TestPromotion:
    def drill(self, plan=None, lag_replica1=False):
        master, clock = make_master(seed=3)
        master.plan = plan
        for i in range(40):
            master.engine.set(b"base:%03d" % i, b"v" * 64)
        r0, _ = attach_synced_replica(master, clock, "replica0")
        r1, s1 = attach_synced_replica(master, clock, "replica1")
        acked = {}
        for i in range(8):
            key, value = b"acked:%02d" % i, b"A%02d" % i
            master.engine.set(key, value)
            assert master.wait(2) == 2
            acked[key] = value
        if lag_replica1:
            s1.connected = False
            r1.disconnect()
            master.engine.set(b"late", b"x")
        master.kill(clock.now)
        clock.advance(ms(1))
        detector = FailureDetector([r0, r1], timeout_ns=us(200), quorum=2)
        coordinator = FailoverCoordinator(
            master, detector, seed=3, plan=plan
        )
        report = coordinator.tick(clock.now)
        assert report is not None
        return master, coordinator, report, acked, (r0, r1), clock

    def test_promotion_preserves_acked_writes_and_lineage(self):
        old, coordinator, report, acked, nodes, clock = self.drill()
        new = coordinator.promoted
        assert new is not None
        assert report.promoted == "replica0"
        assert report.epoch == 1
        assert report.recovery_ns == ms(1)
        for key, value in acked.items():
            assert new.engine.store.get(key) == value
        # PSYNC2 lineage: the old replid survives as replid2, so the
        # surviving peer continued instead of forking.
        assert new.backlog.replid2 == old.backlog.replid
        assert new.backlog.replid != old.backlog.replid
        assert report.peer_resyncs == {"replica1": "CONTINUE"}
        assert new.full_syncs == 0
        # A one-shot coordinator: later ticks do nothing.
        assert coordinator.tick(clock.now + ms(1)) is None
        for node in nodes:
            node.close()

    def test_promoted_master_serves_and_streams(self):
        _, coordinator, _, _, nodes, clock = self.drill()
        new = coordinator.promoted
        new.engine.set(b"after", b"promotion")
        peer = nodes[1]
        assert peer.engine.store.get(b"after") == b"promotion"
        assert new.wait(1) == 1
        for node in nodes:
            node.close()

    def test_lagging_peer_full_resyncs_off_the_new_master(self):
        # replica1 misses writes, so its offset predates the promoted
        # backlog's start: lineage alone cannot save it from a fork.
        _, coordinator, report, acked, nodes, _ = self.drill(
            lag_replica1=True
        )
        assert report.promoted == "replica0"
        assert report.peer_resyncs == {"replica1": "FULLRESYNC"}
        assert coordinator.promoted.full_syncs == 1
        peer = nodes[1]
        for key, value in acked.items():
            assert peer.engine.store.get(key) == value
        assert peer.engine.store.get(b"late") == b"x"
        for node in nodes:
            node.close()

    def test_old_master_hooks_are_detached(self):
        old, coordinator, _, _, nodes, _ = self.drill()
        assert old.engine.on_write is None
        assert old.engine.write_gate is None
        new = coordinator.promoted
        assert new.engine.on_write is not None
        for node in nodes:
            node.close()

    def test_torn_aof_is_repaired_at_promotion(self):
        plan = FaultPlan(
            9,
            [
                FaultSpec(
                    site=SITE_AOF_BYTES,
                    kind="torn-tail",
                    magnitude=2,
                    match=lambda d: d.get("stage") == "promotion",
                )
            ],
        )
        _, coordinator, report, acked, nodes, _ = self.drill(plan=plan)
        assert report.aof_bytes_dropped > 0
        new = coordinator.promoted
        # The dataset is authoritative: nothing acked went missing, and
        # the log was rebuilt to cover the full live image again.
        for key, value in acked.items():
            assert new.engine.store.get(key) == value
        assert new.engine.aof is not None
        assert len(new.engine.aof.records) == len(new.engine.store)
        for node in nodes:
            node.close()


class TestClusterRepair:
    def test_promote_into_cluster_repoints_the_slot_map(self):
        cluster = SimCluster(n_shards=2, method="default")
        engine = KvEngine(
            fork_engine=make_fork_engine("default", cluster.clock),
            frames=cluster.frames,
            name="promoted",
        )
        new_master = ReplicationMaster(engine, supervisor=None)
        epoch_before = cluster.slot_map.epoch
        promote_into_cluster(cluster, 1, new_master, "replica0:7001")
        assert cluster.slot_map.address_of(1) == "replica0:7001"
        assert cluster.slot_map.shard_of_address("replica0:7001") == 1
        assert cluster.slot_map.epoch == epoch_before + 1
        assert cluster.shards[1].engine is engine
        assert new_master.supervisor is cluster.shards[1].supervisor
        # MOVED replies route at the promoted node's address now.
        slot = cluster.slot_map.range_of(1).start
        assert cluster.slot_map.moved_error(slot).endswith("replica0:7001")
        # And a live client lands writes on the promoted engine.
        client = cluster.client()
        key = next(
            b"key:%04d" % i
            for i in range(10_000)
            if cluster.slot_map.shard_of_key(b"key:%04d" % i) == 1
        )
        reply = client.execute("SET", key, "v")
        assert reply.shard_id == 1
        assert engine.store.get(key) == b"v"
