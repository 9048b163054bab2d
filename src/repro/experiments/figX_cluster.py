"""Figure 16 at cluster scale: snapshot scheduling across co-located shards.

The paper's production story (§7) is many IMKVS instances per machine,
where simultaneous fork-based snapshots turn one instance's latency
spike into a machine-wide incident.  This experiment shards one
dataset over a 4-shard :class:`~repro.cluster.cluster.SimCluster`
(shared clock, shared frame pool), drives one merged open-loop stream
through the cluster client, and sweeps fork mechanism x snapshot
scheduling policy:

* **default fork** — the fork call's page-table copy serializes
  machine-wide, so the simultaneous policy stacks four stalls
  back-to-back and cluster p99 suffers; staggering the BGSAVEs is a
  real operational mitigation.
* **ODF / Async-fork** — the fork call is (near-)constant, so the
  scheduling policy barely matters: the mechanism, not the schedule,
  removed the spike.  That insensitivity is the deployment-level
  payoff the paper claims.
"""

from __future__ import annotations

from repro.cluster.cluster import SimCluster
from repro.cluster.coordinator import SnapshotCoordinator, make_policy
from repro.config import SimulationProfile
from repro.core.policy import FORK_METHODS
from repro.experiments.parallel import parallel_map
from repro.experiments.registry import register
from repro.metrics.latency import merge
from repro.metrics.report import ExperimentReport, Table
from repro.workload.cluster import (
    ClusterWorkloadSpec,
    build_cluster_workload,
    prepopulate,
    run_cluster_workload,
)

N_SHARDS = 4
POLICIES = ("simultaneous", "staggered", "dirty-pressure")
#: Snapshot rounds targeted over one run's duration.
ROUNDS = 5


def _spec_for(profile: SimulationProfile, seed: int) -> ClusterWorkloadSpec:
    count = min(40_000, max(6_000, profile.query_count // 50))
    return ClusterWorkloadSpec(
        count=count,
        n_keys=2 * count,
        rate_per_sec=float(profile.set_rate_per_sec),
        seed=seed,
    )


def _one_run(profile: SimulationProfile, method: str, policy_name: str,
             seed: int):
    spec = _spec_for(profile, seed)
    cluster = SimCluster(n_shards=N_SHARDS, method=method)
    workload = build_cluster_workload(spec)
    prepopulate(cluster, workload)
    duration = int(workload.arrivals_ns[-1])
    writes_per_shard = int(spec.count * spec.set_ratio) // N_SHARDS
    policy = make_policy(
        policy_name,
        period_ns=duration // ROUNDS,
        n_shards=N_SHARDS,
        dirty_threshold=max(1, writes_per_shard // ROUNDS),
    )
    coordinator = SnapshotCoordinator(cluster, policy)
    return run_cluster_workload(cluster, workload, coordinator=coordinator)


def _one_run_task(task):
    """``parallel_map`` adapter (module-level, picklable)."""
    return _one_run(*task)


@register("figx-cluster",
          "Cluster-scale Fig. 16: snapshot scheduling across shards")
def run(profile: SimulationProfile) -> ExperimentReport:
    """Sweep fork method x scheduling policy on a 4-shard cluster."""
    report = ExperimentReport(
        "figx-cluster",
        "cluster-wide snapshot-query latency per scheduling policy",
    )
    table = Table(
        f"Cluster ({N_SHARDS} shards, shared machine) — "
        "cluster-wide and worst-shard latency",
        ["method", "policy", "p99 ms", "p99.9 ms",
         "worst shard p99 ms", "snapshots"],
    )
    # Every (method, policy, seed) cell is seeded independently, so the
    # grid fans out over the ``--jobs`` workers; ``parallel_map``
    # returns in grid order, keeping aggregation identical to serial.
    grid = [
        (profile, method, policy_name, seed)
        for method in FORK_METHODS
        for policy_name in POLICIES
        for seed in range(profile.repeats)
    ]
    by_cell: dict[tuple[str, str], list] = {}
    for (_, method, policy_name, _), result in zip(
        grid, parallel_map(_one_run_task, grid)
    ):
        by_cell.setdefault((method, policy_name), []).append(result)
    p99 = {}
    for method in FORK_METHODS:
        for policy_name in POLICIES:
            runs = by_cell[(method, policy_name)]
            cluster_sample = merge([r.merged for r in runs])
            shard_p99s = [
                merge([r.per_shard[sid] for r in runs]).p99_ms()
                for sid in range(N_SHARDS)
            ]
            snapshots = sum(
                sum(r.snapshots_completed.values()) for r in runs
            )
            p99[(method, policy_name)] = cluster_sample.p99_ms()
            table.add_row(
                method,
                policy_name,
                cluster_sample.p99_ms(),
                cluster_sample.p999_ns() / 1e6,
                max(shard_p99s),
                snapshots,
            )
    report.add_table(table)

    def spread(method: str) -> float:
        values = [p99[(method, policy)] for policy in POLICIES]
        return (max(values) - min(values)) / min(values)

    report.check(
        "staggered beats simultaneous on cluster p99 (default fork)",
        p99[("default", "staggered")] < p99[("default", "simultaneous")],
    )
    report.check(
        "Async-fork is insensitive to the scheduling policy (<10% spread)",
        spread("async") < 0.10,
    )
    report.check(
        "scheduling matters far more under the default fork",
        spread("default") > 2.0 * spread("async"),
    )
    report.check(
        "Async-fork under the worst schedule still beats default fork",
        p99[("async", "simultaneous")]
        < p99[("default", "simultaneous")],
    )
    return report
