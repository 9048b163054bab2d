"""Live-reshard workload driver: oracle, windows, solver extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import SimCluster
from repro.workload.cluster import (
    ClusterWorkloadSpec,
    _solve_timeline,
    build_cluster_workload,
)
from repro.workload.reshard import (
    ReshardSpec,
    prepopulate_versioned,
    run_reshard_workload,
)
from tests.workload.scalar_ref import solve_timeline_scalar

SPEC = ClusterWorkloadSpec(
    count=600, n_keys=600, value_size=256, seed=3
)
RESHARD = ReshardSpec(tick_stride=4, slots_per_tick=256)


def small_run(method="default", doctor=None, **kwargs):
    workload = build_cluster_workload(SPEC)
    cluster = SimCluster(n_shards=4, method=method)
    expected = prepopulate_versioned(cluster, workload)
    if doctor is not None:
        doctor(cluster, workload, expected)
    result = run_reshard_workload(
        cluster, workload, RESHARD, expected=expected, **kwargs
    )
    return cluster, result


def first_read_key(workload):
    """A prepopulated key whose first appearance in the stream is a GET."""
    seen = set()
    for i in range(len(workload)):
        ki = int(workload.key_index[i])
        if ki in seen:
            continue
        seen.add(ki)
        if not workload.is_set[i] and ki % 2 == 0:
            return workload.keys[ki]
    raise AssertionError("stream has no GET-first populated key")


# ----------------------------------------------------------------------
# the drain itself
# ----------------------------------------------------------------------


def test_drain_completes_mid_stream_with_clean_oracle():
    cluster, result = small_run()
    assert result.stats.slots_finalized == 4096
    assert result.lost_reads == 0 and result.stale_reads == 0
    assert result.reads_checked > 0
    assert result.ask_redirects > 0  # fresh keys chased into MIGRATING slots
    lo, hi = result.window
    assert 0 < lo < hi < len(result.latencies)
    assert len(cluster.shards[0].engine.store) == 0


def test_prepopulate_loads_only_even_keys():
    workload = build_cluster_workload(SPEC)
    cluster = SimCluster(n_shards=4, method="default")
    expected = prepopulate_versioned(cluster, workload)
    assert len(expected) == len(workload.keys) // 2
    assert all(int(k[4:]) % 2 == 0 for k in expected)
    assert cluster.total_keys() == len(expected)
    assert all(s.engine.store.dirty_since_save == 0 for s in cluster.shards)


# ----------------------------------------------------------------------
# the oracle is not a rubber stamp
# ----------------------------------------------------------------------


def test_oracle_catches_a_lost_read():
    def lose_one(cluster, workload, expected):
        key = first_read_key(workload)
        assert cluster.shard_for_key(key).engine.delete(key)

    _, result = small_run(doctor=lose_one)
    assert result.lost_reads >= 1


def test_oracle_catches_a_stale_read():
    def corrupt_one(cluster, workload, expected):
        expected[first_read_key(workload)] = b"not what was written"

    _, result = small_run(doctor=corrupt_one)
    assert result.stale_reads >= 1


# ----------------------------------------------------------------------
# windows and snapshot rounds
# ----------------------------------------------------------------------


def test_split_by_window_partitions_every_query():
    _, result = small_run()
    inside, outside = result.split_by_window()
    lo, hi = result.window
    assert len(inside) == hi - lo
    assert len(inside) + len(outside) == len(result.latencies)
    assert np.array_equal(inside, result.latencies[lo:hi])


def test_snapshot_rounds_fire_on_every_shard():
    _, result = small_run(
        method="async", snapshot_rounds=(SPEC.count // 2,)
    )
    assert sum(result.snapshots_completed.values()) == 4
    assert result.lost_reads == 0 and result.stale_reads == 0


# ----------------------------------------------------------------------
# the busy-batch solver extension
# ----------------------------------------------------------------------


def synthetic_inputs(n=160, n_shards=2, seed=11):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.integers(0, 2_000_000, size=n)).astype(np.int64)
    service = rng.integers(5_000, 20_000, size=n).astype(np.int64)
    kerns = np.where(
        rng.random(n) < 0.3, rng.integers(1_000, 9_000, size=n), 0
    ).astype(np.int64)
    rtts = rng.integers(0, 3_000, size=n).astype(np.int64)
    shard_ids = rng.integers(0, n_shards, size=n).astype(np.int32)
    fork_batches = [
        (30, int(arrivals[30]), [(0, 400_000), (1, 250_000)]),
    ]
    busy_batches = [
        (20, int(arrivals[20]), [(0, 300_000)]),
        (90, int(arrivals[90]), [(1, 150_000), (0, 80_000)]),
    ]
    return arrivals, service, kerns, rtts, shard_ids, fork_batches, busy_batches


@pytest.mark.parametrize("with_forks", [True, False])
def test_busy_batches_scalar_and_vector_agree(with_forks):
    (arrivals, service, kerns, rtts, shard_ids,
     fork_batches, busy_batches) = synthetic_inputs()
    forks = fork_batches if with_forks else []
    vec = _solve_timeline(
        arrivals, service, kerns, rtts, shard_ids, forks, 2, 100_000,
        busy_batches,
    )
    ref = solve_timeline_scalar(
        arrivals, service, kerns, rtts, shard_ids, forks, 2, 100_000,
        busy_batches,
    )
    assert np.array_equal(vec[0], ref[0])
    assert vec[1] == ref[1]


def test_empty_busy_batches_is_the_old_solver():
    (arrivals, service, kerns, rtts, shard_ids,
     fork_batches, _) = synthetic_inputs()
    base = _solve_timeline(
        arrivals, service, kerns, rtts, shard_ids, fork_batches, 2, 100_000
    )
    explicit = _solve_timeline(
        arrivals, service, kerns, rtts, shard_ids, fork_batches, 2, 100_000,
        [],
    )
    assert np.array_equal(base[0], explicit[0])
    assert base[1] == explicit[1]


def test_busy_batches_delay_their_shard_without_kernel_time():
    (arrivals, service, kerns, rtts, shard_ids,
     _, busy_batches) = synthetic_inputs()
    kerns = np.zeros_like(kerns)  # isolate the userspace path
    quiet = _solve_timeline(
        arrivals, service, kerns, rtts, shard_ids, [], 2, 100_000, []
    )
    busy = _solve_timeline(
        arrivals, service, kerns, rtts, shard_ids, [], 2, 100_000,
        busy_batches,
    )
    assert busy[1] == quiet[1] == 0  # migration never takes the kernel lock
    assert np.all(busy[0] >= quiet[0])
    # The first query on shard 0 at/after the batch waits out the busy.
    i = next(
        i for i in range(20, len(arrivals)) if int(shard_ids[i]) == 0
    )
    assert busy[0][i] > quiet[0][i]
