"""Live resharding under each fork engine (extension figure).

The cluster-operations question the paper's standalone figures leave
open: what happens to tail latency when the two background machines
collide — a live reshard (25% of the slot space draining to new
owners, clients chasing keys through ASK/MOVED) *and* a fork-based
snapshot round landing in the middle of it?

Per fork method, the run drains shard 0's 4096 slots (one of four =
25% of the key space) while the open-loop stream keeps reading and
writing, and fires an all-shard BGSAVE round mid-migration.  Every
read is checked against a read-your-writes oracle; the reported p99 is
split three ways: before the migration window (baseline), inside it,
and after.  The expected shape is the paper's story restated at the
cluster level: migration alone costs little (ODF/Async-fork stay near
baseline through the window), but the default fork's page-table copy
serializes the machine mid-reshard, and the spike lingers long after
the window because the backlog it created has to drain.

Fork-call costs are inflated to an emulated 8 GiB instance (2 GiB per
shard) through the same ``WireCostModel`` the wire server uses, so the
default fork's stall sits at the paper's Figure 3 magnitude while
per-event ODF/Async-fork costs stay physical.
"""

from __future__ import annotations

import hashlib

from repro.cluster.cluster import SimCluster
from repro.cluster.slots import NUM_SLOTS
from repro.config import SimulationProfile
from repro.core.policy import FORK_METHODS
from repro.experiments.parallel import parallel_map
from repro.experiments.registry import register
from repro.metrics.latency import percentile
from repro.metrics.report import ExperimentReport, Table
from repro.net.app import emulation_costs
from repro.units import PAGES_PER_GIB
from repro.workload.cluster import (
    ClusterWorkloadSpec,
    build_cluster_workload,
)
from repro.workload.reshard import (
    ReshardSpec,
    prepopulate_versioned,
    run_reshard_workload,
)

N_SHARDS = 4
#: Emulated instance size across the cluster (the paper's 8 GiB knob).
SIM_SIZE_GB = 8.0
#: One migrator tick every this many served queries.
TICK_STRIDE = 16


def _spec_for(profile: SimulationProfile, seed: int) -> ClusterWorkloadSpec:
    count = min(20_000, max(2_000, profile.query_count // 60))
    # Small values keep the resident set tiny; the emulated instance
    # size, not the resident byte count, decides the fork cost.
    return ClusterWorkloadSpec(
        count=count,
        n_keys=count,
        rate_per_sec=float(profile.set_rate_per_sec),
        value_size=512,
        seed=seed,
    )


def _reshard_run(profile: SimulationProfile, method: str, seed: int) -> dict:
    spec = _spec_for(profile, seed)
    workload = build_cluster_workload(spec)
    cluster = SimCluster(n_shards=N_SHARDS, method=method)
    expected = prepopulate_versioned(cluster, workload)
    target_pages = int(SIM_SIZE_GB * PAGES_PER_GIB / N_SHARDS)
    for shard in cluster.shards:
        resident = max(1, shard.engine.process.mm.rss)
        shard.engine.fork_engine.costs = emulation_costs(
            shard.engine.fork_engine.costs,
            max(1.0, target_pages / resident),
        )
    reshard = ReshardSpec(tick_stride=TICK_STRIDE)
    # Fire the BGSAVE round mid-drain.  The window's *length* is set by
    # the tick budget (>= 4096/slots_per_tick ticks, one per stride),
    # not by the query count, so anchor to the window start — count//2
    # would fall past the window once count outgrows the drain.
    min_window = (NUM_SLOTS // N_SHARDS // reshard.slots_per_tick) * TICK_STRIDE
    snapshot_at = int(spec.count * reshard.start_fraction) + min_window // 2
    result = run_reshard_workload(
        cluster,
        workload,
        reshard,
        expected=expected,
        snapshot_rounds=(snapshot_at,),
    )
    inside, _ = result.split_by_window()
    lo, hi = result.window
    baseline = result.latencies[:lo]
    post = result.latencies[hi:]
    digest = hashlib.blake2b(
        b"|".join(
            [
                result.latencies.tobytes(),
                str(result.window).encode(),
                str(result.stats.slots_finalized).encode(),
                str(result.stats.keys_moved).encode(),
                str(result.stats.bytes_shipped).encode(),
                str(result.ask_redirects).encode(),
                str(result.moved_redirects).encode(),
            ]
        ),
        digest_size=16,
    ).hexdigest()
    return {
        "method": method,
        "seed": seed,
        "p99_base_ms": percentile(baseline, 99.0) / 1e6,
        "p99_in_ms": percentile(inside, 99.0) / 1e6,
        "p99_post_ms": percentile(post, 99.0) / 1e6,
        "window": result.window,
        "snapshot_at": snapshot_at,
        "count": spec.count,
        "slots_finalized": result.stats.slots_finalized,
        "keys_moved": result.stats.keys_moved,
        "reads_checked": result.reads_checked,
        "lost": result.lost_reads,
        "stale": result.stale_reads,
        "ask": result.ask_redirects,
        "moved": result.moved_redirects,
        "refreshes": result.slot_cache_refreshes,
        "snapshots": sum(result.snapshots_completed.values()),
        "digest": digest,
    }


def _reshard_task(task):
    """Run one cell twice; report whether the replay matched bit-for-bit."""
    outcome = _reshard_run(*task)
    replay = _reshard_run(*task)
    return outcome, outcome["digest"] == replay["digest"]


@register(
    "figx-reshard",
    "Live reshard: migrate 25% of slots mid-workload under each engine",
)
def run(profile: SimulationProfile) -> ExperimentReport:
    """Drain one shard live, snapshot mid-drain, split p99 by window."""
    report = ExperimentReport(
        "figx-reshard",
        "p99 before/during/after a live 25%-slot migration with a "
        "mid-window BGSAVE round, per fork engine",
    )
    table = Table(
        "Live reshard with a mid-window snapshot round (p99 by phase)",
        ["method", "seed", "p99 base ms", "p99 reshard ms", "p99 after ms",
         "keys moved", "ASK", "MOVED", "lost", "stale"],
    )
    grid = [
        (profile, method, seed)
        for method in FORK_METHODS
        for seed in range(profile.repeats)
    ]
    runs: list[dict] = []
    replay_identical = True
    for outcome, replayed_ok in parallel_map(_reshard_task, grid):
        replay_identical &= replayed_ok
        runs.append(outcome)
        table.add_row(
            outcome["method"],
            outcome["seed"],
            outcome["p99_base_ms"],
            outcome["p99_in_ms"],
            outcome["p99_post_ms"],
            outcome["keys_moved"],
            outcome["ask"],
            outcome["moved"],
            outcome["lost"],
            outcome["stale"],
        )
    report.add_table(table)

    by_method: dict[str, list[dict]] = {}
    for outcome in runs:
        by_method.setdefault(outcome["method"], []).append(outcome)
    worst_in = {
        method: max(o["p99_in_ms"] for o in outs)
        for method, outs in by_method.items()
    }
    report.check(
        "every run drained all 4096 slots before the stream ended",
        all(
            o["slots_finalized"] == NUM_SLOTS // N_SHARDS
            and o["window"][1] < o["count"]
            for o in runs
        ),
    )
    report.check(
        "zero lost and zero stale reads across every engine and seed",
        all(o["lost"] == 0 and o["stale"] == 0 for o in runs),
    )
    report.check(
        "clients chased moving keys through ASK during the drain",
        all(o["ask"] > 0 for o in runs),
    )
    report.check(
        "the snapshot round landed inside the migration window",
        all(
            o["window"][0] <= o["snapshot_at"] < o["window"][1]
            for o in runs
        ),
    )
    report.check(
        "the mid-window snapshot round completed on every shard",
        all(o["snapshots"] == N_SHARDS for o in runs),
    )
    report.check(
        "the default fork spikes during the reshard window (>20x baseline)",
        all(
            o["p99_in_ms"] > 20.0 * max(o["p99_base_ms"], 1e-9)
            for o in by_method["default"]
        ),
    )
    report.check(
        "ODF and Async-fork stay near baseline through the window",
        all(
            o["p99_in_ms"] < 10.0 * max(o["p99_base_ms"], 1e-9)
            for method in ("odf", "async")
            for o in by_method[method]
        ),
    )
    report.check(
        "Async-fork's window p99 is at least 10x below the default fork's",
        worst_in["async"] < 0.1 * worst_in["default"]
        and worst_in["odf"] < 0.1 * worst_in["default"],
    )
    report.check(
        "runs replay byte-identically from their seeds",
        replay_identical,
    )
    return report
