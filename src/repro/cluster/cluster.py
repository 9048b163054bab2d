"""The machine: N co-located shards on one clock and one frame pool.

A :class:`SimCluster` is the paper's §7 deployment unit — many IMKVS
instances on one host.  Sharing is what makes it interesting:

* one :class:`~repro.kernel.clock.Clock`, so every shard's fork call,
  CoW fault and proactive sync serializes on the same timeline;
* one :class:`~repro.mem.frames.FrameAllocator`, so simultaneous
  snapshots genuinely contend for physical frames during CoW storms
  (an OOM on one shard is pressure caused by all of them).

Per shard, the cluster builds its own fork engine (all shards use the
same mechanism in one run — the experiment compares runs), a
:class:`~repro.cluster.shard.ShardedCommandServer` and a
:class:`~repro.kvs.supervisor.SnapshotSupervisor`.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.shard import ClusterShard, ShardedCommandServer
from repro.cluster.slots import SlotMap
from repro.core.policy import make_fork_engine
from repro.faults.plan import FaultPlan
from repro.kernel.clock import Clock
from repro.kernel.costs import DEFAULT_COSTS, CostModel
from repro.kvs.engine import KvEngine
from repro.kvs.server import SavePoint
from repro.kvs.supervisor import BackoffPolicy, SnapshotSupervisor
from repro.mem.frames import FrameAllocator

class SimCluster:
    """N ``KvEngine`` + ``ShardedCommandServer`` shards, one machine."""

    def __init__(
        self,
        n_shards: int = 4,
        method: str = "async",
        clock: Optional[Clock] = None,
        frames: Optional[FrameAllocator] = None,
        save_points: tuple[SavePoint, ...] = (),
        costs: CostModel = DEFAULT_COSTS,
        copy_threads: int = 8,
        backoff: BackoffPolicy = BackoffPolicy(),
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.method = method
        self.clock = clock if clock is not None else Clock()
        self.frames = frames if frames is not None else FrameAllocator()
        self.slot_map = SlotMap(n_shards)
        self.shards: list[ClusterShard] = []
        for shard_id in range(n_shards):
            fork_engine = make_fork_engine(
                method, self.clock, costs=costs, copy_threads=copy_threads
            )
            engine = KvEngine(
                fork_engine=fork_engine,
                frames=self.frames,
                name=f"shard{shard_id}",
            )
            if fault_plan is not None:
                engine.attach_fault_plan(fault_plan)
            server = ShardedCommandServer(
                engine,
                shard_id=shard_id,
                slot_map=self.slot_map,
                save_points=save_points,
            )
            supervisor = SnapshotSupervisor(
                engine, policy=backoff, plan=fault_plan
            )
            self.shards.append(
                ClusterShard(shard_id, engine, server, supervisor)
            )

    def __len__(self) -> int:
        return len(self.shards)

    def shard_for_key(self, key) -> ClusterShard:
        """The shard owning one key's slot."""
        return self.shards[self.slot_map.shard_of_key(key)]

    def client(self, link=None) -> "ClusterClient":
        """A routing client bound to this cluster."""
        from repro.cluster.client import ClusterClient

        return ClusterClient(self, link=link)

    def total_keys(self) -> int:
        """Keys stored across every shard."""
        return sum(len(shard.engine.store) for shard in self.shards)

    def metrics_snapshot(self) -> dict:
        """Machine-wide metrics: shared frames + per-shard engine views.

        Per-shard metrics are prefixed ``shardN.``; the shared frame
        pool appears once under its own ``frames.*`` names (every
        shard's engine reports the same allocator).
        """
        snap: dict = {}
        snap.update(self.frames.metrics.snapshot())
        for shard in self.shards:
            for name, value in shard.engine.metrics_snapshot().items():
                if name.startswith("frames."):
                    continue
                snap[f"shard{shard.shard_id}.{name}"] = value
            snap[f"shard{shard.shard_id}.snapshots.completed"] = (
                shard.snapshots_completed
            )
            snap[f"shard{shard.shard_id}.snapshots.failed"] = (
                shard.snapshots_failed
            )
        return dict(sorted(snap.items()))
