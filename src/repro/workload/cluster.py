"""Cluster-aware open-loop workload and its queueing model.

One merged arrival stream (the open-loop contract of §3/§6.1: clients
submit at a fixed aggregate rate no matter how stalled the server is)
is routed key-by-key through a :class:`~repro.cluster.client.
ClusterClient`.  Latency accounting extends the single-instance model
of :mod:`repro.sim.snapshot_sim` with the two machine-level couplings
the §7 story needs:

* **per-shard queues** — each shard is single-threaded, so a query
  starts at ``max(arrival, shard.free_at)``; a stalled shard grows its
  own queue while its neighbours keep serving;
* **machine-wide kernel serialization** — simulated kernel time (fork
  calls the coordinator triggers, CoW/proactive-sync work the serving
  shard performs) runs under one big kernel lock: a query needing
  kernel time also waits for ``kernel_busy``.  Simultaneous fork calls
  therefore stall *every* shard back-to-back, which is exactly why the
  simultaneous policy hurts cluster-wide p99 under the default fork
  and barely registers under Async-fork.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.determinism import seeded_rng
from repro.errors import KvsError
from repro.metrics.latency import LatencySample, merge
from repro.sim.network import NetworkLink, ProductionEnvironment
from repro.workload.openloop import arrival_times, busy_schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import SimCluster
    from repro.cluster.coordinator import SnapshotCoordinator


@dataclass(frozen=True)
class ClusterWorkloadSpec:
    """Shape of one cluster run's load."""

    #: Total routed commands (across all shards).
    count: int = 8_000
    #: Distinct keys; each shard holds roughly ``n_keys / n_shards``.
    n_keys: int = 16_000
    #: Aggregate open-loop arrival rate.
    rate_per_sec: float = 50_000.0
    clients: int = 50
    #: Fraction of SETs (the write-intensive mix of §6.2).
    set_ratio: float = 0.8
    value_size: int = 4_096
    #: Base single-query service time before jitter.
    base_service_ns: int = 10_000
    service_sigma: float = 0.15
    seed: int = 0


@dataclass
class ClusterWorkload:
    """Materialized arrivals, ops and service times for one run."""

    spec: ClusterWorkloadSpec
    arrivals_ns: np.ndarray
    is_set: np.ndarray
    key_index: np.ndarray
    service_ns: np.ndarray
    keys: list[bytes] = field(repr=False)

    def __len__(self) -> int:
        return len(self.arrivals_ns)


def build_cluster_workload(
    spec: ClusterWorkloadSpec,
    environment: Optional[ProductionEnvironment] = None,
) -> ClusterWorkload:
    """Generate the deterministic load for one run.

    ``environment`` applies the cloud modifiers (virtualized-CPU service
    inflation, noisy-neighbour jitter) the Figure 16 production runs use.
    """
    rng = seeded_rng(spec.seed)
    arrivals = arrival_times(
        spec.count, spec.rate_per_sec, clients=spec.clients, rng=rng
    )
    is_set = rng.random(spec.count) < spec.set_ratio
    key_index = rng.integers(0, spec.n_keys, size=spec.count)
    base = spec.base_service_ns
    sigma = spec.service_sigma
    if environment is not None:
        base = int(base * environment.service_inflation)
        sigma += environment.extra_jitter_sigma
    service = (base * rng.lognormal(0.0, sigma, spec.count)).astype(np.int64)
    keys = [b"key:%08d" % i for i in range(spec.n_keys)]
    return ClusterWorkload(spec, arrivals, is_set, key_index, service, keys)


def prepopulate(cluster: "SimCluster", workload: ClusterWorkload) -> None:
    """Load every key straight into its owner shard (no latency cost).

    Mirrors the experiments' warm-up phase: the dataset exists before
    measurement starts, and the dirty counters are cleared so the first
    snapshot round reflects measured-phase writes only.
    """
    value = b"\x00" * workload.spec.value_size
    for key in workload.keys:
        cluster.shard_for_key(key).engine.set(key, value)
    for shard in cluster.shards:
        shard.engine.store.dirty_since_save = 0


@dataclass
class ClusterRunResult:
    """Latency samples and counters from one cluster run."""

    #: Per-shard samples (indexed by shard id), as served.
    per_shard: dict[int, LatencySample]
    #: The cluster-wide view: every query, one merged sample.
    merged: LatencySample
    #: Snapshot windows per shard (fork start -> persist end).
    snapshot_windows: dict[int, list[tuple[int, int]]]
    #: Snapshots completed per shard during the run.
    snapshots_completed: dict[int, int]
    #: MOVED hops the client followed.
    moved_redirects: int
    #: Commands refused by MISCONF-style write refusal.
    refused_writes: int
    #: Total simulated kernel time the machine serialized.
    kernel_ns: int


def run_cluster_workload(
    cluster: "SimCluster",
    workload: ClusterWorkload,
    coordinator: Optional["SnapshotCoordinator"] = None,
    link: Optional[NetworkLink] = None,
) -> ClusterRunResult:
    """Drive the merged stream through the cluster; measure per query."""
    client = cluster.client(link=link)
    clock = cluster.clock
    n = len(workload)
    shard_ids = np.empty(n, dtype=np.int32)
    arrivals = workload.arrivals_ns
    service = workload.service_ns
    value = b"v" * workload.spec.value_size
    # Phase 1 — drive the engines in arrival order and record, per
    # query, everything the queueing model needs: kernel time consumed,
    # the serving shard, the reply RTT, refusals, and the coordinator's
    # fork events.  None of the engine side effects read queueing state
    # (they advance on the *arrival* clock), so the per-shard ``free_at``
    # chains and the machine-wide ``kernel_busy`` lock can be solved
    # afterwards — vectorized between coupling points (see DESIGN.md §14).
    kerns = np.zeros(n, dtype=np.int64)
    rtts = np.zeros(n, dtype=np.int64)
    #: ``(query_index, tick_start, [(shard_id, fork_ns), ...])`` per
    #: coordinator tick that actually triggered forks.
    fork_batches: list[tuple[int, int, list[tuple[int, int]]]] = []
    refused = 0
    fixed_ns = cluster.shards[0].engine.fork_engine.costs.fork_fixed_ns
    for i in range(n):
        arrival = int(arrivals[i])
        clock.advance_to(arrival)
        if coordinator is not None:
            # A triggered fork stalls its shard for the whole call, but
            # only the *copy* portion (page-table cloning, the part that
            # fights for memory bandwidth) serializes machine-wide; the
            # fixed syscall/bookkeeping overhead runs per-core.  This is
            # why simultaneous default forks pile up back-to-back while
            # simultaneous Async forks overlap almost entirely.  Forks
            # of one tick run concurrently (one core per shard), so they
            # all start at the tick instant even though the sequential
            # simulation advanced the clock through each call in turn.
            tick_start = clock.now
            events = [
                (event.shard_id, event.fork_ns)
                for event in coordinator.tick()
            ]
            if events:
                fork_batches.append((i, tick_start, events))
        key = workload.keys[workload.key_index[i]]
        before = clock.now
        try:
            if workload.is_set[i]:
                reply = client.execute(b"SET", key, value)
            else:
                reply = client.execute(b"GET", key)
        except KvsError:
            # MISCONF write refusal (persistent snapshot failure): the
            # command is answered immediately with an error (no kernel
            # work, no RTT charged — ``kerns``/``rtts`` stay zero, which
            # is exactly how the solver prices it).
            refused += 1
            shard_ids[i] = cluster.slot_map.shard_of_key(key)
            continue
        kerns[i] = clock.now - before
        rtts[i] = reply.rtt_ns
        shard_ids[i] = reply.shard_id
    # Phase 2 — solve the coupled queueing timeline.
    latencies, kernel_ns = _solve_timeline(
        arrivals,
        service,
        kerns,
        rtts,
        shard_ids,
        fork_batches,
        len(cluster),
        fixed_ns,
    )
    per_shard = {
        shard.shard_id: LatencySample(
            latencies[shard_ids == shard.shard_id],
            arrivals[shard_ids == shard.shard_id],
        )
        for shard in cluster.shards
    }
    return ClusterRunResult(
        per_shard=per_shard,
        merged=merge(list(per_shard.values())),
        snapshot_windows={
            s.shard_id: list(s.snapshot_windows) for s in cluster.shards
        },
        snapshots_completed={
            s.shard_id: s.snapshots_completed for s in cluster.shards
        },
        moved_redirects=client.moved_redirects,
        refused_writes=refused,
        kernel_ns=kernel_ns,
    )


def _solve_timeline(
    arrivals: np.ndarray,
    service: np.ndarray,
    kerns: np.ndarray,
    rtts: np.ndarray,
    shard_ids: np.ndarray,
    fork_batches: list[tuple[int, int, list[tuple[int, int]]]],
    n_shards: int,
    fixed_ns: int,
    busy_batches: list[tuple[int, int, list[tuple[int, int]]]] = (),
) -> tuple[np.ndarray, int]:
    """Solve the per-shard / kernel-lock timeline, scans between couplings.

    Only two kinds of event couple the shards: coordinator fork ticks
    (they raise ``kernel_busy`` and the forked shard's ``free_at``) and
    queries with kernel time (they wait for and then hold the kernel
    lock).  Everything between two coupling events is an independent
    single-server chain per shard, solved exactly by
    :func:`~repro.workload.openloop.busy_schedule`; the coupling events
    themselves are stepped in order, so the result is bit-identical to
    the scalar recurrence (see DESIGN.md §14).

    ``busy_batches`` (same ``(query_index, tick_start, [(shard_id,
    busy_ns), ...])`` shape as ``fork_batches``) models *userspace*
    head-of-line blocking — a slot migrator's DUMP/ship/RESTORE batches.
    They occupy their shard like a long command but do not touch the
    machine-wide kernel lock; an empty list (the default) leaves every
    existing timeline bit-identical.
    """
    n = len(arrivals)
    latencies = np.empty(n, dtype=np.int64)
    free_at = [0] * n_shards
    kernel_busy = 0
    kernel_ns = 0
    by_shard = [np.flatnonzero(shard_ids == s) for s in range(n_shards)]
    ptr = [0] * n_shards

    def advance(s: int, upto: int) -> None:
        # Serve shard ``s``'s kernel-free queries with index < upto in
        # one scan; refused queries ride along (service only, zero rtt).
        idxs = by_shard[s]
        j = int(np.searchsorted(idxs, upto, side="left"))
        if j > ptr[s]:
            seg = idxs[ptr[s] : j]
            ends = busy_schedule(arrivals[seg], service[seg], free_at[s])
            latencies[seg] = ends - arrivals[seg] + rtts[seg]
            free_at[s] = int(ends[-1])
            ptr[s] = j

    # Coupling events in serving order; a fork or migration tick at
    # index i lands before query i is served.  Sort is stable, so at
    # one index forks apply first, then migration busy, then the query.
    events: list[tuple[int, int, Optional[tuple]]] = [
        (i, 0, (tick_start, evs, True))
        for i, tick_start, evs in fork_batches
    ]
    events += [
        (i, 0, (tick_start, evs, False))
        for i, tick_start, evs in busy_batches
    ]
    events += [(int(i), 1, None) for i in np.flatnonzero(kerns > 0)]
    events.sort(key=lambda e: (e[0], e[1]))
    for i, kind, payload in events:
        if kind == 0:
            tick_start, evs, couples_kernel = payload
            for shard_id, work_ns in evs:
                advance(shard_id, i)
                if couples_kernel:
                    fixed = min(work_ns, fixed_ns)
                    copy = work_ns - fixed
                    kernel_start = max(tick_start + fixed, kernel_busy)
                    kernel_busy = kernel_start + copy
                    kernel_ns += copy
                    free_at[shard_id] = max(free_at[shard_id], kernel_busy)
                else:
                    # Userspace work: the shard is busy, the kernel
                    # lock is not.
                    free_at[shard_id] = (
                        max(free_at[shard_id], tick_start) + work_ns
                    )
        else:
            s = int(shard_ids[i])
            advance(s, i)
            arrival = int(arrivals[i])
            kern = int(kerns[i])
            start = max(arrival, free_at[s])
            kernel_start = max(start, kernel_busy)
            kernel_busy = kernel_start + kern
            kernel_ns += kern
            end = kernel_start + kern + int(service[i])
            free_at[s] = end
            latencies[i] = end - arrival + int(rtts[i])
            # ``advance`` stopped right at i; skip it in the chain.
            ptr[s] += 1
    for s in range(n_shards):
        advance(s, n)
    return latencies, kernel_ns
