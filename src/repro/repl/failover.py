"""Failover: electing, repairing, and promoting a replica to master.

When the failure detector's quorum agrees the master is gone, the
coordinator runs the promotion sequence Redis Sentinel (and Cluster)
follow:

1. **Elect** the replica with the highest replication offset — the one
   that loses the fewest writes; ties break on name for determinism.
2. **Repair** the winner's AOF.  The old master died without warning,
   so the promoted node must assume its own log took the same kind of
   damage a crash leaves behind: the log is serialized through the
   ``kvs.aof.bytes`` fault site (a ``torn-tail`` spec tears it
   mid-record) and decoded back with ``repair=True``.  The *dataset*
   is the replica's live memory — WAIT-acked writes were applied
   before they were acked, so they survive by construction — and the
   log is rebuilt from that image, making the persistence lineage
   whole again.
3. **Promote**: mint a new replid (epoch-derived, deterministic),
   keep the old one as ``replid2`` and carry the offset forward, so
   surviving peers partial-resync off the new master instead of
   forcing a round of forks.
4. **Repoint** the shard in the cluster's slot map
   (:meth:`promote_into_cluster`), so MOVED replies and ``CLUSTER
   SLOTS`` route clients at the promoted node.

The whole sequence is synchronous and deterministic — one call on the
simulated timeline — and returns a :class:`FailoverReport` with the
recovery stopwatch the figx-failover experiment plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import NetworkPartitionError, ReplicationError
from repro.faults.corrupt import corrupt_aof_bytes
from repro.faults.plan import SITE_AOF_BYTES, FaultPlan
from repro.kvs import aof as aof_mod
from repro.kvs.store import PageWalk
from repro.obs import tracer as obs
from repro.repl.detector import FailureDetector
from repro.repl.master import ReplicationMaster
from repro.repl.replica import ReplicaNode


@dataclass
class FailoverReport:
    """What one promotion did, and how long the outage lasted."""

    promoted: str
    epoch: int
    #: Offset the winner had applied (writes beyond it are lost).
    elected_offset: int
    #: Simulated time from master death (or first detection, when the
    #: death instant is unknown) to the promoted master serving writes.
    recovery_ns: int
    detected_at_ns: int
    promoted_at_ns: int
    #: Bytes a crash tore off the winner's AOF tail (repaired).
    aof_bytes_dropped: int = 0
    #: Peer resyncs against the new master: name -> CONTINUE/FULLRESYNC.
    peer_resyncs: dict[str, str] = field(default_factory=dict)
    #: Peers that could not be reattached (partitioned mid-resync).
    peers_lost: list[str] = field(default_factory=list)


class FailoverCoordinator:
    """Watches one master; promotes the best replica when it dies."""

    def __init__(
        self,
        master: ReplicationMaster,
        detector: FailureDetector,
        seed: int = 0,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        self.master = master
        self.detector = detector
        self.seed = seed
        self.plan = plan
        #: Monotonic promotion counter; feeds the new replid's epoch.
        self.epoch = 0
        self.promoted: Optional[ReplicationMaster] = None
        self.report: Optional[FailoverReport] = None

    def tick(self, now: int) -> Optional[FailoverReport]:
        """One detector evaluation; promotes when the quorum trips.

        Returns the :class:`FailoverReport` on the tick that performed
        the promotion, ``None`` otherwise (including every tick after —
        this coordinator performs at most one failover).
        """
        if self.promoted is not None:
            return None
        if not self.detector.check(now):
            return None
        return self.promote(now)

    def elect(self) -> ReplicaNode:
        """The replica with the most replicated data (ties: by name)."""
        candidates = [
            s.node
            for s in self.master.sessions.values()
            if s.node.engine.process.alive
        ]
        if not candidates:
            raise ReplicationError("no replica available to promote")
        return sorted(
            candidates, key=lambda n: (-n.applied_offset, n.name)
        )[0]

    def promote(self, now: int) -> FailoverReport:
        """Run the full election -> repair -> promotion sequence."""
        winner = self.elect()
        dropped = self._repair_aof(winner)
        self.epoch += 1
        old = self.master
        old.detach()
        new_master = ReplicationMaster(
            winner.engine,
            supervisor=None,
            seed=self.seed,
            replid_epoch=self.epoch,
            start_offset=winner.applied_offset,
            backlog_capacity=old.backlog.capacity_bytes,
            min_replicas_to_write=old.min_replicas_to_write,
            max_lag_ns=old.max_lag_ns,
            heartbeat_interval_ns=old.heartbeat_interval_ns,
            plan=old.plan,
            name=winner.name,
        )
        # PSYNC2 lineage continuity: peers still holding the old replid
        # at an offset the timeline covers get +CONTINUE, not a fork.
        new_master.backlog.replid2 = old.backlog.replid
        winner.replid = new_master.backlog.replid
        report = FailoverReport(
            promoted=winner.name,
            epoch=self.epoch,
            elected_offset=winner.applied_offset,
            recovery_ns=now
            - (
                old.died_at_ns
                if old.died_at_ns is not None
                else (self.detector.down_since or now)
            ),
            detected_at_ns=self.detector.down_since or now,
            promoted_at_ns=now,
            aof_bytes_dropped=dropped,
        )
        for name in sorted(old.sessions):
            session = old.sessions[name]
            if session.node is winner:
                continue
            if not session.node.engine.process.alive:
                report.peers_lost.append(name)
                continue
            new_master.add_replica(session.node, session.link)
            try:
                kind, _ = new_master.psync(name)
            except (NetworkPartitionError, ReplicationError):
                report.peers_lost.append(name)
                continue
            report.peer_resyncs[name] = kind
        self.promoted = new_master
        self.report = report
        if obs.ACTIVE:
            obs.emit_instant(
                "repl.failover.promote",
                obs.CAT_KVS,
                now,
                promoted=winner.name,
                epoch=self.epoch,
                offset=winner.applied_offset,
                recovery_ns=report.recovery_ns,
            )
        return report

    def _repair_aof(self, winner: ReplicaNode) -> int:
        """Crash-harden the winner's log before it serves as master.

        Serializes the AOF through the torn-tail fault site, decodes it
        back with repair, then rebuilds the log from the live dataset —
        the image the election actually chose — so acked writes stay
        durable even when the tail was torn.
        """
        engine = winner.engine
        if engine.aof is None:
            return 0
        data = aof_mod.encode(engine.aof)
        if self.plan is not None:
            spec = self.plan.fire(
                SITE_AOF_BYTES, stage="promotion", node=winner.name
            )
            if spec is not None:
                data = corrupt_aof_bytes(data, spec, self.plan.rng)
        _, dropped = aof_mod.decode(data, repair=True)
        walk = PageWalk(engine.process.mm, engine.store.table_snapshot())
        engine.aof.records = list(aof_mod.compact_commands(walk.items()))
        engine.aof.rewrite_buffer = []
        engine.aof.rewriting = False
        if dropped and obs.ACTIVE:
            obs.emit_instant(
                "repl.failover.aof-repair",
                obs.CAT_KVS,
                engine.clock.now,
                node=winner.name,
                dropped=dropped,
            )
        return dropped


def promote_into_cluster(
    cluster,
    shard_id: int,
    new_master: ReplicationMaster,
    address: str,
) -> None:
    """Install a promoted master as one cluster shard's serving node.

    Builds the shard plumbing (sharded server + supervisor) around the
    promoted engine, replaces ``cluster.shards[shard_id]``, and
    repoints the slot map at the promoted node's address — after which
    MOVED replies and ``CLUSTER SLOTS`` route clients to it and stale
    clients repair their caches on the first redirect.
    """
    from repro.cluster.shard import ClusterShard, ShardedCommandServer
    from repro.kvs.supervisor import SnapshotSupervisor

    engine = new_master.engine
    server = ShardedCommandServer(
        engine, shard_id=shard_id, slot_map=cluster.slot_map
    )
    supervisor = SnapshotSupervisor(engine, plan=new_master.plan)
    new_master.supervisor = supervisor
    cluster.shards[shard_id] = ClusterShard(
        shard_id, engine, server, supervisor
    )
    cluster.slot_map.set_address(shard_id, address)
    if obs.ACTIVE:
        obs.emit_instant(
            "cluster.failover.repair",
            obs.CAT_KVS,
            engine.clock.now,
            shard=shard_id,
            address=address,
            epoch=cluster.slot_map.epoch,
        )
