"""Redis-Cluster-shaped sharding on one simulated machine.

N ``KvEngine`` + ``CommandServer`` shards share a single
:class:`~repro.kernel.clock.Clock` and one
:class:`~repro.mem.frames.FrameAllocator` — the co-located-instances
deployment of the paper's §7 production story, where simultaneous
fork-based snapshots are what turns a per-instance latency spike into a
machine-wide incident.  The pieces:

* :mod:`repro.cluster.slots` — CRC16 hash slots, hash tags, the slot map;
* :mod:`repro.cluster.shard` — a slot-aware ``CommandServer`` that
  answers ``MOVED``/``CROSSSLOT`` plus the per-shard supervision wiring;
* :mod:`repro.cluster.client` — a slot-caching client routing through
  :class:`~repro.sim.network.NetworkLink`;
* :mod:`repro.cluster.coordinator` — snapshot scheduling policies
  (simultaneous / staggered / dirty-pressure);
* :mod:`repro.cluster.cluster` — :class:`SimCluster`, the machine.
"""

from repro.cluster.client import ClusterClient, ClusterReply
from repro.cluster.cluster import SimCluster
from repro.cluster.coordinator import (
    DirtyPressurePolicy,
    SimultaneousPolicy,
    SnapshotCoordinator,
    StaggeredPolicy,
    make_policy,
)
from repro.cluster.shard import ClusterShard, ShardedCommandServer
from repro.cluster.slots import NUM_SLOTS, SlotMap, crc16, key_slot

__all__ = [
    "NUM_SLOTS",
    "ClusterClient",
    "ClusterReply",
    "ClusterShard",
    "DirtyPressurePolicy",
    "ShardedCommandServer",
    "SimCluster",
    "SimultaneousPolicy",
    "SnapshotCoordinator",
    "SlotMap",
    "StaggeredPolicy",
    "crc16",
    "key_slot",
    "make_policy",
]
