"""Property tests: vectorized timelines equal the scalar reference loops.

The prefix-scan schedules (DESIGN.md §14) claim *bit-identity* with the
retired per-query recurrences, not approximation.  These tests check
that claim from three angles:

* the :func:`busy_schedule` primitive against a literal transcription
  of ``end = max(arrival, prev_end) + dur`` over random chains;
* the replication and cluster solvers against the scalar reference
  recurrences in :mod:`tests.workload.scalar_ref` over random
  instances — including fork batches landing mid-chain, shards that
  never serve a query, and kernel-lock contention;
* the full snapshot simulator run twice, vectorized vs the scalar
  ``_Runner._run_scalar`` loop (reached by making
  ``snapshot_vec.try_vectorized`` decline), comparing every observable
  down to the Chrome-trace export bytes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import task
from repro.sim import snapshot_vec
from repro.sim.snapshot_sim import _Runner
from repro.workload import cluster as wl_cluster
from repro.workload import replication as wl_repl
from repro.workload.openloop import busy_schedule, event_slots
from tests.workload import timeline_fixture as tf
from tests.workload.scalar_ref import (
    chain_latencies_scalar,
    solve_timeline_scalar,
)


def scalar_chain_ends(arrivals, durations, free_at=0):
    """Literal transcription of the retired per-query recurrence."""
    ends = np.empty(len(arrivals), dtype=np.int64)
    prev = int(free_at)
    for i in range(len(arrivals)):
        prev = max(int(arrivals[i]), prev) + int(durations[i])
        ends[i] = prev
    return ends


@st.composite
def chains(draw):
    n = draw(st.integers(1, 200))
    gaps = draw(
        st.lists(st.integers(0, 10**6), min_size=n, max_size=n)
    )
    arrivals = np.cumsum(np.asarray(gaps, dtype=np.int64))
    durations = np.asarray(
        draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    free_at = draw(st.integers(0, 10**7))
    return arrivals, durations, free_at


class TestBusySchedule:
    @settings(max_examples=60, deadline=None)
    @given(chains())
    def test_matches_scalar_recurrence(self, chain):
        arrivals, durations, free_at = chain
        got = busy_schedule(arrivals, durations, free_at)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, scalar_chain_ends(arrivals, durations, free_at)
        )

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert len(busy_schedule(empty, empty)) == 0

    def test_event_slots_are_drain_points(self):
        arrivals = np.array([10, 20, 20, 30], dtype=np.int64)
        times = np.array([5, 20, 31], dtype=np.int64)
        # An event at t is drained before the first arrival >= t; one
        # past the stream end (slot == n) is never processed.
        assert list(event_slots(arrivals, times)) == [0, 1, 4]


class TestReplicationChain:
    @settings(max_examples=50, deadline=None)
    @given(chains(), st.booleans(), st.integers(0, 10**7))
    def test_matches_scalar_with_and_without_stall(
        self, chain, with_stall, stall_ns
    ):
        arrivals, durations, _ = chain
        stall_at = len(arrivals) // 2 if with_stall else None
        vec = wl_repl._chain_latencies(
            arrivals, durations, stall_at, stall_ns
        )
        ref = chain_latencies_scalar(
            arrivals, durations, stall_at, stall_ns
        )
        assert np.array_equal(vec, ref)


def _random_cluster_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    n_shards = int(rng.integers(1, 6))
    arrivals = np.cumsum(rng.integers(0, 50_000, n)).astype(np.int64)
    service = rng.integers(0, 30_000, n).astype(np.int64)
    kerns = np.where(
        rng.random(n) < 0.15, rng.integers(1, 200_000, n), 0
    ).astype(np.int64)
    rtts = rng.integers(0, 5_000, n).astype(np.int64)
    # Route to a subset of the shards sometimes, leaving idle shards.
    active = int(rng.integers(1, n_shards + 1))
    shard_ids = rng.integers(0, active, n).astype(np.int32)
    n_batches = int(rng.integers(0, 4))
    fork_batches = []
    for i in sorted(
        rng.choice(n, size=min(n, n_batches), replace=False).tolist()
    ):
        events = [
            (int(rng.integers(0, n_shards)), int(rng.integers(0, 5_000_000)))
            for _ in range(int(rng.integers(1, 3)))
        ]
        fork_batches.append((i, int(arrivals[i]), events))
    fixed_ns = int(rng.integers(0, 100_000))
    return (
        arrivals, service, kerns, rtts, shard_ids,
        fork_batches, n_shards, fixed_ns,
    )


class TestClusterSolver:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_scalar(self, seed):
        instance = _random_cluster_instance(seed)
        lat_v, kern_v = wl_cluster._solve_timeline(*instance)
        lat_s, kern_s = solve_timeline_scalar(*instance)
        assert np.array_equal(lat_v, lat_s)
        assert kern_v == kern_s


# -- the full snapshot simulator, scalar vs vectorized -------------------

#: Scenarios beyond the committed fixture: a mid-batch fork (clients=500
#: makes 50-query batches, so the fork index almost surely lands inside
#: one) and each method at a size the fixture doesn't pin.
EXTRA_SCENARIOS = [
    (
        "default-midbatch",
        dict(count=5_000, size_gb=2, clients=500, seed=8101),
        dict(method="default"),
    ),
    (
        "odf-midbatch",
        dict(count=5_000, size_gb=4, clients=500, seed=8102),
        dict(method="odf"),
    ),
    (
        "async-midbatch",
        dict(count=5_000, size_gb=4, clients=500, seed=8103),
        dict(method="async"),
    ),
    (
        "async-pte-small",
        dict(count=5_000, size_gb=2, seed=8104),
        dict(method="async", sync_granularity="pte", sync_handshake_ns=250),
    ),
]


def _digest_both_paths(name, wl_kw, cfg_kw):
    """Digest one scenario on the vectorized and on the scalar path.

    A spy on ``_run_scalar`` proves the two runs took different paths:
    the vectorized run never enters it; the scalar run, with
    ``try_vectorized`` declining, does.
    """
    scalar_runs = []
    run_scalar = _Runner._run_scalar

    def spy_run_scalar(self):
        scalar_runs.append(self)
        return run_scalar(self)

    saved = task._pid_counter
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Runner, "_run_scalar", spy_run_scalar)
        try:
            task._pid_counter = itertools.count(90_000)
            vec = tf._snapshot_digest(name, wl_kw, cfg_kw)
            assert scalar_runs == []
            mp.setattr(snapshot_vec, "try_vectorized", lambda runner: None)
            task._pid_counter = itertools.count(90_000)
            ref = tf._snapshot_digest(name, wl_kw, cfg_kw)
            assert len(scalar_runs) == 1
        finally:
            task._pid_counter = saved
    assert vec == ref


@pytest.mark.parametrize(
    "name,wl_kw,cfg_kw",
    EXTRA_SCENARIOS,
    ids=[name for name, _, _ in EXTRA_SCENARIOS],
)
def test_snapshot_sim_scalar_vec_equivalence(name, wl_kw, cfg_kw):
    _digest_both_paths(name, wl_kw, cfg_kw)


@settings(max_examples=6, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(["default", "odf", "async"]),
)
def test_snapshot_sim_equivalence_random_seeds(seed, method):
    _digest_both_paths(
        f"rand-{method}-{seed}",
        dict(count=3_000, size_gb=2, seed=seed),
        dict(method=method),
    )
