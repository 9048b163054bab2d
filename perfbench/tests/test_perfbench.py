"""Tests of the benchmark itself: span arithmetic, seeded inputs, checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from perfbench import layers, run, sim, wire
from perfbench.common import REF_BLOCK_S, ROOT, BenchError, SpeedProbe

# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    assert layers.self_time_ns(0, 100, [(10, 20), (30, 50)]) == 70


def test_self_time_counts_overlapping_children_once():
    # [10,40) and [30,60) overlap on [30,40): covered is [10,60) = 50.
    assert layers.self_time_ns(0, 100, [(30, 60), (10, 40)]) == 50


def test_self_time_clips_children_to_the_span():
    # A child running past the span's end only covers the span's part.
    assert layers.self_time_ns(0, 100, [(90, 150), (-5, 5)]) == 85


def test_self_time_with_contained_and_touching_children():
    children = [(10, 50), (20, 30), (50, 60)]
    assert layers.covered_ns(0, 100, children) == 50
    assert layers.self_time_ns(0, 100, children) == 50


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_recorder_attributes_self_time_per_layer():
    clock = FakeClock()
    rec = layers.Recorder(clock=clock)
    outer = layers.Target("m", "f", "server", "handle")
    inner = layers.Target("m", "g", "mm", "read")

    def g():
        clock.now += 30

    wrapped_g = layers._wrap(g, inner, rec)

    def f():
        clock.now += 10
        wrapped_g()
        clock.now += 5
        wrapped_g()
        clock.now += 1

    layers._wrap(f, outer, rec)()
    snap = rec.snapshot()
    stats = {(lay, what): rest for lay, what, *rest in snap["stats"]}
    assert stats[("server", "handle")] == [1, 76, 16]
    assert stats[("mm", "read")] == [2, 60, 60]


def test_recorder_folds_reentry_and_drops_spans_open_at_reset():
    clock = FakeClock()
    rec = layers.Recorder(clock=clock)
    target = layers.Target("m", "f", "server", "handle")
    calls = []

    def f(depth):
        clock.now += 10
        calls.append(depth)
        if depth:
            wrapped(depth - 1)
        elif len(calls) == 3:
            rec.reset()

    wrapped = layers._wrap(f, target, rec)
    wrapped(2)
    # The outer call opened before the reset: nothing is recorded.
    assert rec.snapshot()["stats"] == []
    wrapped(1)
    assert rec.snapshot()["stats"] == [["server", "handle", 1, 20, 20]]


def test_install_rewraps_names_bound_at_import_and_uninstalls():
    import repro.net.app
    import repro.net.protocol

    original = repro.net.protocol.encode
    assert repro.net.app.encode is original
    rec = layers.Recorder()
    uninstall = layers.install(rec)
    try:
        assert repro.net.app.encode is repro.net.protocol.encode
        assert repro.net.app.encode is not original
        repro.net.app.encode(b"x")
        assert rec.counters["codec.bytes"] == len(original(b"x"))
    finally:
        uninstall()
    assert repro.net.app.encode is original


def test_layer_metrics_cover_every_declared_name():
    rec = layers.Recorder()
    metrics = layers.layer_metrics(rec.snapshot(), ops=10, run_ns=1000)
    declared = set(layers.PER_LAYER_UNITS)
    assert set(metrics) <= declared
    assert declared - set(metrics) == {
        "server.cpu_us_per_op", "loop.us_per_op", "mm.setup_faults",
        "trace.overhead_frac", "client.cpu_util",
        "host.steal_frac",
    }


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------


def _ops(seed, conn_id=0, n=200):
    spec = wire.SPECS["wire-kv"]
    ops = wire.Ops(spec, conn_id, seed, wire.filler_bytes(seed))
    return [ops.next_op() for _ in range(n)]


def test_wire_ops_reproduce_per_seed():
    assert _ops(7) == _ops(7)
    assert _ops(7) != _ops(8)
    assert _ops(7, conn_id=0) != _ops(7, conn_id=1)


def test_wire_get_expects_the_connections_last_write():
    spec = wire.SPECS["wire-kv"]
    ops = wire.Ops(spec, 1, 3, wire.filler_bytes(3))
    for _ in range(2000):
        payload, expected = ops.next_op()
        key_i = int(payload.split(b"key:")[1][:12])
        assert key_i % 2 == 1
        if payload.startswith(b"*2"):
            want = ops.model.get(key_i, bytes(spec.value_size))
            assert expected == (b"$", want)


def test_wire_snapshot_bgsaves_on_connection_zero_only():
    spec = wire.SPECS["wire-snapshot"]
    every = spec.bgsave_every
    for conn_id, want in ((0, 3), (1, 0)):
        ops = wire.Ops(spec, conn_id, 4, wire.filler_bytes(4))
        sent = [ops.next_op() for _ in range(3 * every)]
        saves = [i for i, op in enumerate(sent) if op[0] == wire.BGSAVE]
        assert ops.bgsaves == len(saves) == want
        assert saves == [every * k - 1 for k in range(1, want + 1)]


# ----------------------------------------------------------------------
# tiny smokes with an injected wrong reply
# ----------------------------------------------------------------------


def _tamper_nth(n, bad):
    seen = {"count": 0}

    def tamper(reply):
        seen["count"] += 1
        return bad if seen["count"] == n else reply
    return tamper


@pytest.mark.parametrize("workload", ["wire-kv", "wire-snapshot"])
def test_wire_smoke_counts_an_injected_wrong_reply(workload, tmp_path):
    clean = wire.run(workload, 1, 0.6, False, str(tmp_path), spawns=1)
    assert clean.failed == 0 and clean.attempted > 100, clean.problems
    assert clean.metrics["ok_frac"][0] == 1.0
    bad = wire.run(workload, 1, 0.6, False, str(tmp_path), spawns=1,
                   tamper=_tamper_nth(1000, (b"$", b"wrong")))
    assert bad.failed == 1, bad.problems
    assert bad.metrics["ok_frac"][0] < 1.0


@pytest.fixture
def tiny_cluster(monkeypatch):
    from repro.workload.cluster import ClusterWorkloadSpec

    monkeypatch.setattr(
        sim, "cluster_spec",
        lambda seed: ClusterWorkloadSpec(
            count=800, n_keys=400, value_size=256, seed=seed),
    )


def test_sim_cluster_smoke_counts_an_injected_wrong_reply(tiny_cluster):
    clean = sim.run(2, 0.01, False)
    assert clean.failed == 0, clean.problems
    assert clean.attempted >= 800 + 4 * sim.MIN_SNAPSHOTS_PER_SHARD
    bad = sim.run(2, 0.01, False, tamper=_tamper_nth(100, b"wrong"))
    assert bad.failed == 1, bad.problems


def test_sim_cluster_latency_digest_repeats(tiny_cluster):
    digests = set()
    for _ in range(2):
        rnd = sim.ClusterRound(3)
        rnd.run(sim.Result())
        digests.add(rnd.digest)
    assert len(digests) == 1


def test_traced_sim_cluster_reports_every_layer_metric(tiny_cluster):
    traced = sim.run(2, 0.01, True)
    assert traced.failed == 0, traced.problems
    metrics = {name: value for name, (value, _) in traced.metrics.items()}
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    assert metrics["route.us_per_op"] > 0
    assert metrics["rdb.read_calls_per_snapshot"] > 0
    for name in ("session.us_per_op", "bridge.stalls", "client.cpu_util"):
        assert metrics[name] == 0.0


def test_speed_probe_scales_by_the_median_block_time():
    probe = SpeedProbe()
    probe.proc = object()  # stands in for a started probe process
    for i, block_s in enumerate([REF_BLOCK_S * 2, REF_BLOCK_S * 2, 1.0]):
        probe.samples[2 * i] = 10.0 + i
        probe.samples[2 * i + 1] = block_s
    probe.count.value = 3
    # Half speed: the median block took twice the reference time; the
    # outlier and the sample outside the span do not count.
    assert probe.speed(9.5, 12.5) == pytest.approx(0.5)
    assert probe.speed(9.5, 11.5) == pytest.approx(0.5)
    with pytest.raises(BenchError):
        probe.speed(20.0, 21.0)
    assert SpeedProbe(enabled=False).speed(0.0, 1.0) == 1.0


def test_speed_probe_runs_and_stops():
    with SpeedProbe() as probe:
        start = time.perf_counter()
        deadline = start + 5.0
        while probe.proc is not None and probe.count.value < 5:
            assert time.perf_counter() < deadline
        if probe.proc is not None:
            assert probe.speed(start, time.perf_counter()) > 0
    assert probe.proc is None or not probe.proc.is_alive()


def test_run_exits_nonzero_without_the_program(tmp_path):
    # A directory holding only the benchmark: no src/, so no result.
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        path = os.path.join(ROOT, "perfbench", name)
        if os.path.isfile(path):
            (bench / name).write_bytes(open(path, "rb").read())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-cluster",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == layers.PER_LAYER_UNITS
