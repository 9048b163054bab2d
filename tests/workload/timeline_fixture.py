"""Deterministic timeline scenarios whose digests pin the vectorization.

:func:`run_scenarios` drives every queueing timeline this PR rewrites —
the snapshot-sim open-loop loop across all four methods (plus the
pte-granularity, handshake, AOF/rewrite, KeyDB multi-thread,
back-pressure, production-environment and memtier variants), the
replicated-master ``free_at`` recurrence with a mid-run full sync, the
cluster per-shard ``free_at`` + machine-wide ``kernel_busy`` coupling,
and the full fig4-5 experiment CSV output — from fixed seeds, and
returns a digest bundle:

* blake2b hashes of the byte-exact latency and completion arrays,
* snapshot windows, fork costs and fault counters,
* blake2b hashes of the byte-exact Chrome-trace export of each run,
* the CSV bytes of a full fig4-5 sweep on a scaled profile.

``tests/workload/fixtures/timeline_pr8.json`` stores the bundle as
produced by the **pre-vectorization** scalar loops; the equivalence
test re-runs the scenarios and asserts byte-identical results.  Every
scenario's query count is a multiple of the arrival batch size (5 at
the default 50 clients) so the `arrival_times` last-gap rate fix —
which only changes truncated final batches — cannot perturb them.
Regenerate (only when the scenarios themselves change, never to paper
over a digest mismatch) with::

    PYTHONPATH=src python -m tests.workload.timeline_fixture
"""

from __future__ import annotations

import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.config import SimulationProfile
from repro.kernel import task
from repro.obs.export import chrome_trace_json
from repro.sim.disk import DiskModel
from repro.sim.network import PRODUCTION_ENVIRONMENT
from repro.sim.snapshot_sim import SnapshotSimConfig, simulate_snapshot
from repro.workload.generators import (
    memtier_workload,
    redis_benchmark_workload,
)

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "timeline_pr8.json"


def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _arr(a: np.ndarray) -> str:
    return _blake(np.ascontiguousarray(a).tobytes())


# -- snapshot-sim scenarios ---------------------------------------------

#: (name, workload kwargs, config kwargs).  Counts are multiples of 5.
SNAPSHOT_SCENARIOS = [
    (
        "default-1g",
        dict(count=40_000, size_gb=1, seed=7001),
        dict(method="default"),
    ),
    (
        "odf-8g",
        dict(count=40_000, size_gb=8, seed=7002),
        dict(method="odf"),
    ),
    (
        "async-8g",
        dict(count=40_000, size_gb=8, seed=7003),
        dict(method="async"),
    ),
    (
        "none-2g",
        dict(count=40_000, size_gb=2, seed=7004),
        dict(method="none"),
    ),
    (
        "async-pte-handshake",
        dict(count=20_000, size_gb=4, seed=7005),
        dict(
            method="async",
            sync_granularity="pte",
            sync_handshake_ns=500,
        ),
    ),
    (
        "rewrite-aof-2g",
        dict(count=20_000, size_gb=2, seed=7006),
        dict(method="default", aof=True, rewrite=True),
    ),
    (
        "keydb-4t-async",
        dict(count=20_000, size_gb=4, rate_per_sec=150_000, seed=7007),
        dict(method="async", engine_threads=4),
    ),
    (
        "odf-backpressure",
        dict(count=20_000, size_gb=4, seed=7008),
        dict(method="odf", inflight_per_client=2),
    ),
    (
        "async-production",
        dict(count=20_000, size_gb=4, seed=7009),
        dict(method="async", environment=PRODUCTION_ENVIRONMENT),
    ),
    (
        "odf-memtier-slowdisk",
        dict(
            count=20_000,
            size_gb=4,
            seed=7010,
            _memtier=dict(ratio="1:1", pattern="gaussian"),
        ),
        dict(method="odf", _disk_speedup=1.0),
    ),
]


def _snapshot_digest(name: str, wl_kw: dict, cfg_kw: dict) -> dict:
    wl_kw = dict(wl_kw)
    cfg_kw = dict(cfg_kw)
    size_gb = wl_kw.pop("size_gb")
    memtier = wl_kw.pop("_memtier", None)
    if memtier is not None:
        workload = memtier_workload(
            wl_kw.pop("count"), size_gb, **memtier, **wl_kw
        )
    else:
        workload = redis_benchmark_workload(
            wl_kw.pop("count"), size_gb, **wl_kw
        )
    speedup = cfg_kw.pop("_disk_speedup", 16.0)
    config = SnapshotSimConfig(
        size_gb=size_gb,
        workload=workload,
        disk=DiskModel(speedup=speedup),
        seed=wl_kw.get("seed", 7) * 3 + 1,
        **cfg_kw,
    )
    result = simulate_snapshot(config)
    hist = result.interrupts.bcc_histogram()
    return {
        "latencies": _arr(result.sample.latencies_ns),
        "arrivals": _arr(result.sample.arrivals_ns),
        "completions": _arr(result.completions_ns),
        "snapshot_start": repr(result.snapshot_start_ns),
        "snapshot_end": repr(result.snapshot_end_ns),
        "fork_call_ns": int(result.fork_call_ns),
        "child_copy_ns": int(result.child_copy_ns),
        "proactive_syncs": int(result.counts["proactive_syncs"]),
        "table_faults": int(result.counts["table_faults"]),
        "data_cow": int(result.counts["data_cow"]),
        "persist_ns": int(result.counts["persist_ns"]),
        "oos_ns": int(result.out_of_service_ns()),
        "bcc_hist": sorted(
            [int(lo), int(hi), int(c)] for (lo, hi), c in hist.items()
        ),
        "trace_events": len(result.trace),
        "trace_blake2b": _blake(chrome_trace_json(result.trace).encode()),
    }


# -- replication scenarios ----------------------------------------------


def _replication_digest(method: str, seed: int) -> dict:
    from repro.core.policy import make_fork_engine
    from repro.config import EngineConfig
    from repro.kernel.clock import Clock
    from repro.kvs.engine import KvEngine
    from repro.kvs.supervisor import SnapshotSupervisor
    from repro.repl import ReplicationMaster, ReplLink, ReplicaNode
    from repro.units import us
    from repro.workload.replication import (
        ReplWorkloadSpec,
        build_repl_workload,
        prepopulate_master,
        run_replicated_workload,
    )

    spec = ReplWorkloadSpec(
        count=5_000,
        n_keys=5_000,
        rate_per_sec=50_000.0,
        value_size=1_024,
        seed=seed,
    )
    clock = Clock()
    engine = KvEngine(
        fork_engine=make_fork_engine(method, clock),
        config=EngineConfig(aof_enabled=True),
    )
    master = ReplicationMaster(
        engine,
        supervisor=SnapshotSupervisor(engine),
        seed=seed,
        heartbeat_interval_ns=us(50),
    )
    workload = build_repl_workload(spec)
    prepopulate_master(master, workload)
    replica = ReplicaNode("replica0", clock)
    result = run_replicated_workload(
        master,
        workload,
        sync_replica=replica,
        sync_link=ReplLink(name="replica0"),
        sync_at=spec.count // 4,
    )
    replica.close()
    master.engine.process.exit()
    return {
        "latencies": _arr(result.sample.latencies_ns),
        "sync_window": list(result.sync_window)
        if result.sync_window
        else None,
        "fork_stall_ns": int(result.fork_stall_ns),
        "gated_writes": int(result.gated_writes),
        "final_clock_ns": int(result.final_clock_ns),
    }


# -- cluster scenarios ---------------------------------------------------


def _cluster_digest(method: str, policy_name: str, seed: int) -> dict:
    from repro.cluster.cluster import SimCluster
    from repro.cluster.coordinator import SnapshotCoordinator, make_policy
    from repro.workload.cluster import (
        ClusterWorkloadSpec,
        build_cluster_workload,
        prepopulate,
        run_cluster_workload,
    )

    n_shards = 4
    rounds = 3
    spec = ClusterWorkloadSpec(
        count=3_000, n_keys=6_000, rate_per_sec=50_000.0, seed=seed
    )
    cluster = SimCluster(n_shards=n_shards, method=method)
    workload = build_cluster_workload(spec)
    prepopulate(cluster, workload)
    duration = int(workload.arrivals_ns[-1])
    writes_per_shard = int(spec.count * spec.set_ratio) // n_shards
    policy = make_policy(
        policy_name,
        period_ns=duration // rounds,
        n_shards=n_shards,
        dirty_threshold=max(1, writes_per_shard // rounds),
    )
    coordinator = SnapshotCoordinator(cluster, policy)
    result = run_cluster_workload(cluster, workload, coordinator=coordinator)
    return {
        "merged_latencies": _arr(result.merged.latencies_ns),
        "merged_arrivals": _arr(result.merged.arrivals_ns),
        "per_shard_counts": {
            str(sid): len(s) for sid, s in sorted(result.per_shard.items())
        },
        "per_shard_latencies": {
            str(sid): _arr(s.latencies_ns)
            for sid, s in sorted(result.per_shard.items())
        },
        "snapshot_windows": {
            str(sid): [[int(a), int(b)] for a, b in windows]
            for sid, windows in sorted(result.snapshot_windows.items())
        },
        "snapshots_completed": {
            str(sid): int(c)
            for sid, c in sorted(result.snapshots_completed.items())
        },
        "moved_redirects": int(result.moved_redirects),
        "refused_writes": int(result.refused_writes),
        "kernel_ns": int(result.kernel_ns),
    }


# -- the fig4-5 experiment, end to end ----------------------------------

FIG45_PROFILE = SimulationProfile(
    name="pr8-fixture",
    query_count=60_000,
    persist_speedup=32.0,
    sizes_gb=(1, 2, 8),
    repeats=1,
)


def _fig45_digest() -> dict:
    from repro.experiments import fig04_05_def_latency
    from repro.experiments.common import clear_cache

    clear_cache()
    try:
        report = fig04_05_def_latency.run(FIG45_PROFILE)
    finally:
        clear_cache()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in report.save_csv(tmp):
            digests[name] = _blake((Path(tmp) / name).read_bytes())
    return digests


# -- the bundle ----------------------------------------------------------


def run_scenarios() -> dict:
    """Run every pinned scenario; returns the digest bundle (JSON-safe)."""
    # Pin the global pid counter so engine/mm names (which can appear in
    # traces) do not depend on what ran earlier in the session.
    saved_counter = task._pid_counter
    task._pid_counter = itertools.count(50_000)
    try:
        bundle: dict = {"snapshot": {}, "replication": {}, "cluster": {}}
        for name, wl_kw, cfg_kw in SNAPSHOT_SCENARIOS:
            bundle["snapshot"][name] = _snapshot_digest(name, wl_kw, cfg_kw)
        for method, seed in (("default", 3), ("async", 4)):
            bundle["replication"][f"{method}-s{seed}"] = _replication_digest(
                method, seed
            )
        for method, policy, seed in (
            ("default", "staggered", 11),
            ("async", "simultaneous", 12),
        ):
            bundle["cluster"][f"{method}-{policy}-s{seed}"] = _cluster_digest(
                method, policy, seed
            )
        bundle["fig4_5_csv"] = _fig45_digest()
        return bundle
    finally:
        task._pid_counter = saved_counter


def main() -> None:
    bundle = run_scenarios()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
