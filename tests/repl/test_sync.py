"""Tests for full sync, the stream, partial resync, and degradation."""

from __future__ import annotations

import pytest

from repro.core.policy import FORK_METHODS, make_fork_engine
from repro.config import EngineConfig
from repro.errors import NoReplicasError, StaleSyncError
from repro.faults.plan import SITE_REPL_SEND, FaultPlan, FaultSpec
from repro.kernel.clock import Clock
from repro.kvs.engine import KvEngine
from repro.kvs.server import CommandServer
from repro.kvs.supervisor import SnapshotSupervisor
from repro.repl import (
    STATE_ONLINE,
    ReplLink,
    ReplicaNode,
    ReplicationMaster,
)
from repro.units import ms, us


def make_master(method: str = "async", seed: int = 0, **kwargs):
    clock = Clock()
    engine = KvEngine(
        fork_engine=make_fork_engine(method, clock),
        config=EngineConfig(aof_enabled=True),
    )
    supervisor = SnapshotSupervisor(engine)
    master = ReplicationMaster(
        engine, supervisor=supervisor, seed=seed, **kwargs
    )
    return master, clock


def attach_synced_replica(master, clock, name="replica0", plan=None):
    node = ReplicaNode(name, clock)
    link = ReplLink(name=name, fault_plan=plan)
    session = master.add_replica(node, link)
    master.full_sync(session)
    return node, link, session


class TestFullSync:
    @pytest.mark.parametrize("method", FORK_METHODS)
    def test_full_sync_copies_the_dataset_through_a_real_fork(
        self, method
    ):
        master, clock = make_master(method)
        for i in range(64):
            master.engine.set(b"k:%04d" % i, b"v" * 128)
        node, _, _ = attach_synced_replica(master, clock)
        assert node.state == STATE_ONLINE
        assert len(node.engine.store) == 64
        assert node.engine.store.get(b"k:0042") == b"v" * 128
        assert node.applied_offset == master.backlog.master_offset
        assert master.full_syncs == 1
        assert node.full_syncs == 1
        node.close()

    def test_fork_stall_is_visible_on_the_shared_clock(self):
        reports = {}
        for method in ("default", "async"):
            master, clock = make_master(method)
            # Big enough that the page-table copy dominates the default
            # fork's stall (the stall scales with resident pages).
            for i in range(8000):
                master.engine.set(b"k:%04d" % i, b"v" * 4096)
            node = ReplicaNode("replica0", clock)
            session = master.add_replica(node, ReplLink())
            report = master.full_sync(session)
            reports[method] = report
            node.close()
        assert (
            reports["default"].fork_stall_ns
            > 3 * reports["async"].fork_stall_ns
        )

    def test_writes_during_sync_arrive_via_the_backlog_tail(self):
        master, clock = make_master("async")
        for i in range(128):
            master.engine.set(b"k:%04d" % i, b"v" * 128)
        node = ReplicaNode("replica0", clock)
        session = master.add_replica(node, ReplLink())
        job = master.begin_full_sync(session)
        assert job is not None
        # Writes land while the child copy is still in flight.
        master.engine.set(b"during-sync", b"fresh")
        master.engine.delete(b"k:0000")
        report = None
        while report is None:
            report = master.step_full_sync(session)
        assert report.tail_records == 2
        assert node.engine.store.get(b"during-sync") == b"fresh"
        assert node.engine.store.get(b"k:0000") is None
        assert node.applied_offset == master.backlog.master_offset
        node.close()

    def test_sync_outliving_the_backlog_raises_stale_sync(self):
        master, clock = make_master("async", backlog_capacity=512)
        for i in range(32):
            master.engine.set(b"k:%04d" % i, b"v" * 64)
        node = ReplicaNode("replica0", clock)
        session = master.add_replica(node, ReplLink())
        job = master.begin_full_sync(session)
        assert job is not None
        # Enough writes to evict the sync start offset from the ring.
        for i in range(64):
            master.engine.set(b"w:%04d" % i, b"v" * 64)
        with pytest.raises(StaleSyncError, match="outlived the backlog"):
            report = None
            while report is None:
                report = master.step_full_sync(session)
        assert not session.connected
        node.close()


class TestStream:
    def test_sets_and_deletes_replicate_in_order(self):
        master, clock = make_master()
        node, _, _ = attach_synced_replica(master, clock)
        master.engine.set(b"a", b"1")
        master.engine.set(b"b", b"2")
        master.engine.delete(b"a")
        assert node.engine.store.get(b"a") is None
        assert node.engine.store.get(b"b") == b"2"
        assert node.records_applied == 3
        node.close()

    def test_replica_aof_follows_the_stream(self):
        master, clock = make_master()
        node, _, _ = attach_synced_replica(master, clock)
        master.engine.set(b"x", b"y")
        assert node.engine.aof is not None
        assert node.engine.aof.records[-1].key == b"x"
        node.close()

    def test_wait_counts_acked_replicas(self):
        master, clock = make_master()
        n0, _, _ = attach_synced_replica(master, clock, "replica0")
        n1, _, _ = attach_synced_replica(master, clock, "replica1")
        master.engine.set(b"k", b"v")
        assert master.wait(2) == 2
        assert n0.acked_offset == master.backlog.master_offset
        assert n1.acked_offset == master.backlog.master_offset
        n0.close()
        n1.close()


class TestPartialResync:
    def test_brief_partition_heals_without_a_second_fork(self):
        plan = FaultPlan(
            5, [FaultSpec(site=SITE_REPL_SEND, kind="partition", count=1)]
        )
        master, clock = make_master()
        node, link, session = attach_synced_replica(master, clock)
        link.fault_plan = plan
        master.engine.set(b"lost", b"1")  # this send is partitioned
        assert not session.connected
        master.engine.set(b"while-away", b"2")
        kind, streamed = master.psync("replica0")
        assert kind == "CONTINUE"
        assert streamed == 2
        assert master.partial_resyncs == 1
        assert master.full_syncs == 1  # the initial one only
        assert node.engine.store.get(b"lost") == b"1"
        assert node.engine.store.get(b"while-away") == b"2"
        node.close()

    def test_fallen_off_the_backlog_forces_full_resync(self):
        master, clock = make_master(backlog_capacity=256)
        node, _, session = attach_synced_replica(master, clock)
        session.connected = False
        node.disconnect()
        for i in range(64):  # evict the replica's offset from the ring
            master.engine.set(b"w:%04d" % i, b"v" * 32)
        kind, _ = master.psync("replica0")
        assert kind == "FULLRESYNC"
        assert master.full_syncs == 2
        assert node.engine.store.get(b"w:0063") == b"v" * 32
        node.close()

    def test_rtt_spike_slows_but_does_not_drop_the_stream(self):
        plan = FaultPlan(
            5,
            [
                FaultSpec(
                    site=SITE_REPL_SEND,
                    kind="rtt-spike",
                    magnitude=ms(2),
                    count=1,
                )
            ],
        )
        master, clock = make_master()
        node, link, session = attach_synced_replica(master, clock)
        link.fault_plan = plan
        master.engine.set(b"slow", b"1")
        assert session.connected
        assert link.spike_ns_total == ms(2)
        assert node.engine.store.get(b"slow") == b"1"
        node.close()


class TestDegradation:
    def test_min_replicas_gate_refuses_writes(self):
        master, clock = make_master(min_replicas_to_write=1)
        with pytest.raises(NoReplicasError, match="NOREPLICAS"):
            master.engine.set(b"k", b"v")
        assert master.gated_writes == 1
        node, _, session = attach_synced_replica(master, clock)
        master.engine.set(b"k", b"v")  # one good replica: accepted
        session.connected = False
        node.disconnect()
        with pytest.raises(NoReplicasError):
            master.engine.set(b"k2", b"v")
        node.close()

    def test_reads_go_stale_when_the_master_goes_quiet(self):
        master, clock = make_master(heartbeat_interval_ns=us(50))
        node, _, _ = attach_synced_replica(master, clock)
        node.stale_after_ns = us(100)
        master.cron()
        _, stale = node.get(b"k", clock.now)
        assert not stale
        clock.advance(us(500))  # silence: no heartbeats arrive
        _, stale = node.get(b"k", clock.now)
        assert stale
        assert node.stale_reads == 1
        node.close()

    def test_heartbeats_keep_replicas_fresh(self):
        master, clock = make_master(heartbeat_interval_ns=us(50))
        node, _, _ = attach_synced_replica(master, clock)
        node.stale_after_ns = us(100)
        for _ in range(10):
            clock.advance(us(60))
            master.cron()
        assert not node.is_stale(clock.now)
        assert master.heartbeats_sent >= 9
        node.close()

    def test_info_fields_flow_through_the_server(self):
        master, clock = make_master(min_replicas_to_write=1)
        node, _, _ = attach_synced_replica(master, clock)
        server = CommandServer(master.engine)
        server.info_extra = master.info
        reply = server.handle([b"INFO"])
        text = bytes(reply).decode()
        assert "role:master" in text
        assert f"master_replid:{master.backlog.replid}" in text
        assert "connected_slaves:1" in text
        assert "sync_full:1" in text
        node.close()
