"""Property-based invariants of the discrete-event simulator."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.disk import DiskModel
from repro.sim.snapshot_sim import SnapshotSimConfig, simulate_snapshot
from repro.workload.generators import redis_benchmark_workload

methods = st.sampled_from(["none", "default", "odf", "async"])


def _examples(n: int) -> int:
    """``n`` examples, scaled up under a profile that asks for more than
    hypothesis's default 100 (the nightly ``explore`` profile)."""
    return max(n, n * settings.default.max_examples // 100)


def simulate(method, size_gb, seed, **kw):
    workload = redis_benchmark_workload(20_000, size_gb, seed=seed)
    return simulate_snapshot(
        SnapshotSimConfig(
            size_gb=size_gb,
            method=method,
            workload=workload,
            disk=DiskModel(speedup=64.0),
            seed=seed + 1,
            **kw,
        )
    )


@settings(max_examples=_examples(20), deadline=None)
@given(
    method=methods,
    size_gb=st.sampled_from([1, 4, 16]),
    seed=st.integers(0, 10_000),
)
def test_conservation_and_causality(method, size_gb, seed):
    """Every query completes, after it arrived, exactly once."""
    res = simulate(method, size_gb, seed)
    n = len(res.config.workload)
    assert len(res.sample) == n
    assert len(res.completions_ns) == n
    arrivals = res.sample.arrivals_ns
    assert np.all(res.completions_ns > arrivals)
    assert np.all(res.sample.latencies_ns == res.completions_ns - arrivals)
    assert res.sample.latencies_ns.min() > 0


@settings(max_examples=_examples(15), deadline=None)
@given(
    method=methods,
    size_gb=st.sampled_from([1, 8]),
    seed=st.integers(0, 10_000),
)
def test_single_server_never_overlaps(method, size_gb, seed):
    """With one engine thread, service intervals are disjoint: each
    completion is at least the (positive) service time after the later
    of its arrival and the previous completion."""
    res = simulate(method, size_gb, seed)
    completions = res.completions_ns
    assert np.all(np.diff(completions) >= 0)


@settings(max_examples=_examples(15), deadline=None)
@given(
    size_gb=st.sampled_from([1, 8]),
    seed=st.integers(0, 10_000),
)
def test_snapshot_partition(size_gb, seed):
    """Snapshot + normal queries partition the stream exactly."""
    res = simulate("async", size_gb, seed)
    snap = res.snapshot_queries()
    norm = res.normal_queries()
    assert len(snap) + len(norm) == len(res.sample)
    assert np.all(snap.arrivals_ns >= res.snapshot_start_ns)
    assert np.all(snap.arrivals_ns < res.snapshot_end_ns)


@settings(max_examples=_examples(12), deadline=None)
@given(
    size_gb=st.sampled_from([1, 8, 32]),
    seed=st.integers(0, 10_000),
)
@example(size_gb=1, seed=443)
@example(size_gb=1, seed=1749)
@example(size_gb=1, seed=2573)
@example(size_gb=1, seed=1175).xfail(
    raises=AssertionError, reason="async end-of-window slowdown"
)
@example(size_gb=1, seed=4420).xfail(
    raises=AssertionError, reason="async end-of-window slowdown"
)
def test_method_dominance(size_gb, seed):
    """For any seed and size, the p99 ordering async <= odf <= default
    holds once any fork disturbance exists at all.

    The three methods are compared over one shared arrival range, the
    union of their snapshot windows.  Each method's own window ends
    with its snapshot, and Async-fork's runs longer than ODF's by the
    child's PMD/PTE copy, so per-window p99s are taken over different
    queries.  On the 1 GiB seeds above a stall that both runs share
    comes near the end of the persist and falls into more of
    Async-fork's window than of ODF's (seed 1749: 100 of its slow
    queries against 30), while no query is slower under Async-fork.
    Over seeds 0-10,000 at 1 GiB the per-window comparison fails on 19
    seeds and the shared range on two, 1175 and 4420, kept as expected
    failures: there 139 and 160 queries that arrive just after
    Async-fork's window ends are up to 118 and 122 us slower than under
    ODF, a slowdown of Async-fork's own that the shared range keeps.
    """
    runs = {
        method: simulate(method, size_gb, seed)
        for method in ("async", "odf", "default")
    }
    lo = min(res.snapshot_start_ns for res in runs.values())
    hi = max(res.snapshot_end_ns for res in runs.values())
    p99 = {
        method: res.sample.window(lo, hi).p99_ns()
        for method, res in runs.items()
    }
    assert p99["async"] <= p99["odf"] * 1.05 + 50_000
    assert p99["odf"] <= p99["default"] * 1.05 + 50_000


@settings(max_examples=_examples(12), deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fault_counters_match_interrupt_log(seed):
    res = simulate("odf", 8, seed)
    logged = res.interrupts.count("odf:table-cow")
    assert logged == res.counts["table_faults"]
    res = simulate("async", 8, seed)
    logged = res.interrupts.count("async:proactive-sync")
    assert logged == res.counts["proactive_syncs"]


@settings(max_examples=_examples(10), deadline=None)
@given(seed=st.integers(0, 10_000))
def test_async_syncs_bounded_by_tables(seed):
    res = simulate("async", 4, seed)
    assert res.counts["proactive_syncs"] <= res.instance.n_tables
