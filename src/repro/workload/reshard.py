"""Live-reshard workload: traffic keeps flowing while slots migrate.

The figx-reshard scenario: a cluster serves its merged open-loop
stream while a :class:`~repro.cluster.migrate.SlotMigrator` drains one
shard's slots to the others, key by key on the shared clock, possibly
with fork-based snapshots landing mid-window.  The driver extends
:mod:`repro.workload.cluster` in two ways:

* **a read-your-writes oracle** — every SET's value is unique (key
  index + query index), recorded in an expected-state dict the instant
  the server acks it; every GET is checked against that dict.  A miss
  where a value is expected is a *lost* read (a key fell through the
  migration), a mismatch is a *stale* read (served from the wrong
  side).  Zero of both is the correctness claim of the reshard PR.
* **migration head-of-line blocking** — every migrator tick's
  ``(shard_id, busy_ns)`` events enter the queueing solver as
  userspace busy batches: concurrently arriving queries on a shard
  that is busy DUMPing/RESTOREing wait exactly that long, while the
  machine-wide kernel lock stays free (migration is not kernel work —
  fork calls remain the only thing that serializes the machine).

Only half the keyspace is prepopulated: SETs that create fresh keys in
a still-MIGRATING slot land on the target via ``ASK``, so the run
naturally exercises the redirect protocol it is measuring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cluster.migrate import (
    MigrationStats,
    SlotMigrator,
    plan_shard_drain,
)
from repro.errors import KvsError
from repro.metrics.latency import LatencySample, merge
from repro.sim.network import NetworkLink
from repro.workload.cluster import ClusterWorkload, _solve_timeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import SimCluster
    from repro.cluster.coordinator import SnapshotCoordinator


@dataclass(frozen=True)
class ReshardSpec:
    """When and how fast the live migration runs."""

    #: Shard whose entire slot range is drained (1 of 4 = 25%).
    source_shard: int = 0
    #: Migration begins once this fraction of the stream has arrived.
    start_fraction: float = 0.25
    #: One migrator tick every N served queries (drain pacing).
    tick_stride: int = 8
    keys_per_tick: int = 32
    slots_per_tick: int = 64


def prepopulate_versioned(
    cluster: "SimCluster", workload: ClusterWorkload
) -> dict[bytes, bytes]:
    """Load *half* the keys with versioned values; returns the oracle.

    Values carry their key index so a read served from the wrong key's
    cell (or a torn migration) cannot pass the check by accident.  The
    unpopulated half exists so mid-migration SETs create fresh keys —
    the ``ASK``-to-target path of the protocol.
    """
    expected: dict[bytes, bytes] = {}
    width = workload.spec.value_size
    for index, key in enumerate(workload.keys):
        if index % 2:
            continue
        value = (b"init:%d;" % index).ljust(width, b"\x00")
        cluster.shard_for_key(key).engine.set(key, value)
        expected[key] = value
    for shard in cluster.shards:
        shard.engine.store.dirty_since_save = 0
    return expected


@dataclass
class ReshardRunResult:
    """Latency + correctness outcome of one live-reshard run."""

    #: Per-query latency (arrival order) and arrival instants.
    latencies: np.ndarray
    arrivals: np.ndarray
    #: Query-index bounds of the migration: begin() fired before
    #: ``window[0]`` was served; the last tick drained by ``window[1]``.
    window: tuple[int, int]
    merged: LatencySample
    per_shard: dict[int, LatencySample]
    stats: MigrationStats
    #: Oracle verdicts.
    reads_checked: int
    lost_reads: int
    stale_reads: int
    #: Client redirect counters for the run.
    ask_redirects: int
    moved_redirects: int
    slot_cache_refreshes: int
    snapshots_completed: dict[int, int]
    kernel_ns: int
    refused_writes: int

    def split_by_window(self) -> tuple[np.ndarray, np.ndarray]:
        """Latencies of queries arriving inside vs outside the window."""
        lo, hi = self.window
        mask = np.zeros(len(self.latencies), dtype=bool)
        mask[lo:hi] = True
        return self.latencies[mask], self.latencies[~mask]


def run_reshard_workload(
    cluster: "SimCluster",
    workload: ClusterWorkload,
    reshard: ReshardSpec = ReshardSpec(),
    expected: Optional[dict[bytes, bytes]] = None,
    coordinator: Optional["SnapshotCoordinator"] = None,
    link: Optional[NetworkLink] = None,
    snapshot_rounds: tuple[int, ...] = (),
) -> ReshardRunResult:
    """Drive the stream while draining a shard; oracle-check every read.

    ``snapshot_rounds`` fires an all-shard BGSAVE round at each given
    query index.  Index-anchored rounds (rather than a clock-period
    policy) are what cost-inflated runs need: every fork call advances
    the shared clock by its full parent stall, so under an emulated
    multi-GiB instance the clock races far ahead of the arrival
    timeline and any ``period_ns`` schedule would re-fire on every
    subsequent tick.
    """
    if expected is None:
        expected = prepopulate_versioned(cluster, workload)
    client = cluster.client(link=link)
    clock = cluster.clock
    n = len(workload)
    arrivals = workload.arrivals_ns
    service = workload.service_ns
    shard_ids = np.empty(n, dtype=np.int32)
    kerns = np.zeros(n, dtype=np.int64)
    rtts = np.zeros(n, dtype=np.int64)
    fork_batches: list[tuple[int, int, list[tuple[int, int]]]] = []
    busy_batches: list[tuple[int, int, list[tuple[int, int]]]] = []
    fixed_ns = cluster.shards[0].engine.fork_engine.costs.fork_fixed_ns

    migrator = SlotMigrator(
        cluster,
        plan_shard_drain(cluster, source=reshard.source_shard),
        link=link,
        keys_per_tick=reshard.keys_per_tick,
        slots_per_tick=reshard.slots_per_tick,
    )
    start_index = min(n - 1, int(n * reshard.start_fraction))
    end_index = n  # overwritten when the drain completes mid-stream
    width = workload.spec.value_size
    reads_checked = lost = stale = refused = 0

    snapshot_set = set(snapshot_rounds)

    for i in range(n):
        arrival = int(arrivals[i])
        clock.advance_to(arrival)
        if coordinator is not None:
            tick_start = clock.now
            events = [
                (event.shard_id, event.fork_ns)
                for event in coordinator.tick()
            ]
            if events:
                fork_batches.append((i, tick_start, events))
        if i in snapshot_set:
            events = []
            for shard in cluster.shards:
                if shard.snapshotting:
                    continue
                before = clock.now
                if shard.begin_snapshot():
                    events.append((shard.shard_id, clock.now - before))
            if events:
                if fork_batches and fork_batches[-1][0] == i:
                    # The scalar reference recurrence consumes one
                    # batch per index (tests/workload/scalar_ref.py):
                    # fold into the coordinator's batch from this tick.
                    fork_batches[-1][2].extend(events)
                else:
                    # Anchored to the arrival instant for the same
                    # reason as the migration batches below.
                    fork_batches.append((i, arrival, events))
        if i == start_index:
            migrator.begin()
        if (
            migrator.started
            and not migrator.done
            and (i - start_index) % reshard.tick_stride == 0
        ):
            events = migrator.tick()
            if events:
                # At most one busy batch lands per query index (one
                # tick per stride), matching the scalar reference walk.
                # The batch is anchored to the *arrival* instant: its
                # busy_ns values were measured as clock deltas, and the
                # engine clock runs ahead of the arrival timeline (it
                # accumulates every shard's simulated work), so using
                # clock.now here would double-count that work.
                busy_batches.append((i, arrival, events))
            if migrator.done:
                end_index = i + 1
        key = workload.keys[workload.key_index[i]]
        before = clock.now
        try:
            if workload.is_set[i]:
                value = (b"v:%d:%d;" % (workload.key_index[i], i)).ljust(
                    width, b"\x00"
                )
                reply = client.execute(b"SET", key, value)
                if not isinstance(reply.value, Exception):
                    expected[key] = value
            else:
                reply = client.execute(b"GET", key)
                reads_checked += 1
                want = expected.get(key)
                if reply.value is None and want is not None:
                    lost += 1
                elif reply.value is not None and reply.value != want:
                    stale += 1
        except KvsError:
            refused += 1
            shard_ids[i] = cluster.slot_map.shard_of_key(key)
            continue
        kerns[i] = clock.now - before
        rtts[i] = reply.rtt_ns
        shard_ids[i] = reply.shard_id

    latencies, kernel_ns = _solve_timeline(
        arrivals,
        service,
        kerns,
        rtts,
        shard_ids,
        fork_batches,
        len(cluster),
        fixed_ns,
        busy_batches,
    )
    per_shard = {
        shard.shard_id: LatencySample(
            latencies[shard_ids == shard.shard_id],
            arrivals[shard_ids == shard.shard_id],
        )
        for shard in cluster.shards
    }
    return ReshardRunResult(
        latencies=latencies,
        arrivals=arrivals,
        window=(start_index, end_index),
        merged=merge(list(per_shard.values())),
        per_shard=per_shard,
        stats=migrator.stats,
        reads_checked=reads_checked,
        lost_reads=lost,
        stale_reads=stale,
        ask_redirects=client.ask_redirects,
        moved_redirects=client.moved_redirects,
        slot_cache_refreshes=client.slot_cache_refreshes,
        snapshots_completed={
            s.shard_id: s.snapshots_completed for s in cluster.shards
        },
        kernel_ns=kernel_ns,
        refused_writes=refused,
    )
