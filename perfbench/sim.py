"""The ``sim-cluster`` workload, run in this process through the API.

One figx-cluster round: a 4-shard default-fork ``SimCluster``, the
``ClusterWorkloadSpec`` defaults (16,000 keys of 4 KiB, 8,000 queries,
80% SET, 50k/s simulated arrivals) and the staggered snapshot policy
over 5 periods, which takes 16 or 17 snapshots.  A run repeats whole
rounds, each on a fresh cluster, until its seconds are used.

Checks: every routed GET returns what the round wrote (or the
prepopulated zeros), no write is refused, every triggered snapshot
completes and passes ``rdb.verify`` with its shard's key count, and
every round of one seed has the same digest of simulated latencies.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Optional

from perfbench import layers
from perfbench.common import (
    Result,
    SpeedProbe,
    host_cpu_ticks,
    percentile,
    steal_frac,
    vm_hwm_mb,
)

N_SHARDS = 4
ROUNDS = 5
#: Snapshots every shard must complete in a round: one per policy
#: period (the seed decides whether a fifth lands before the last query).
MIN_SNAPSHOTS_PER_SHARD = ROUNDS - 1
#: Consecutive routed queries per latency chunk (10 beyond each p99).
CHUNK = 1000


def latency_digest(latencies_ns) -> str:
    return hashlib.blake2b(latencies_ns.tobytes(), digest_size=16).hexdigest()


def cluster_spec(seed: int):
    """The round's load: ``ClusterWorkloadSpec`` defaults, seeded."""
    from repro.workload.cluster import ClusterWorkloadSpec

    return ClusterWorkloadSpec(seed=seed)


class ClusterRound:
    """One seeded cluster round: set-up, then the timed run phase."""

    def __init__(self, seed: int):
        from repro.cluster.cluster import SimCluster
        from repro.workload.cluster import build_cluster_workload, prepopulate

        start = time.perf_counter()
        self.spec = cluster_spec(seed)
        self.cluster = SimCluster(N_SHARDS, "default")
        self.workload = build_cluster_workload(self.spec)
        prepopulate(self.cluster, self.workload)
        self.setup_s = time.perf_counter() - start
        #: First-touch page faults of the set-up, from the program's
        #: own ``mm.faults`` counters.
        self.setup_faults = sum(
            value for name, value in self.cluster.metrics_snapshot().items()
            if name.endswith(".mm.faults")
        )
        #: Snapshots that completed but are not checked yet, as
        #: (shard id, SnapshotFile).  Each is checked and dropped after
        #: the query that completed it, so peak RSS stays the program's.
        self.unchecked: list = []
        self.snapshots_done = 0
        #: Wall time spent checking snapshots inside the run phase.
        self.check_ns = 0
        for shard in self.cluster.shards:
            shard.server.on_job_done = self._collector(
                shard.shard_id, shard.server.on_job_done
            )

    def _collector(self, shard_id: int, chained: Callable) -> Callable:
        from repro.kvs.engine import SnapshotJob

        def on_job_done(job, error):
            chained(job, error)
            if error is None and isinstance(job, SnapshotJob):
                self.unchecked.append((shard_id, job.report.file))
        return on_job_done

    def check_snapshots(self, result: Result) -> None:
        """``rdb.verify`` each completed snapshot and match its key count
        with its shard's (keys are only overwritten, so it is fixed)."""
        from repro.errors import CorruptSnapshotError
        from repro.kvs import rdb

        t0 = time.perf_counter_ns()
        while self.unchecked:
            shard_id, snapshot = self.unchecked.pop()
            self.snapshots_done += 1
            keys = len(self.cluster.shards[shard_id].engine.store)
            try:
                rdb.verify(snapshot)
            except CorruptSnapshotError as exc:
                result.fail(f"shard {shard_id} snapshot: {exc}")
                continue
            if snapshot.entry_count != keys:
                result.fail(f"shard {shard_id} snapshot holds "
                            f"{snapshot.entry_count} keys, shard has {keys}")
        self.check_ns += time.perf_counter_ns() - t0

    def run(self, result: Result, tamper: Optional[Callable] = None):
        """Drive the round; returns (run wall s, per-query wall ns list).

        The run time leaves out the benchmark's own snapshot checks."""
        from repro.cluster.client import ClusterClient
        from repro.cluster.coordinator import SnapshotCoordinator, make_policy
        from repro.errors import ReproError
        from repro.workload.cluster import run_cluster_workload

        spec, workload = self.spec, self.workload
        duration = int(workload.arrivals_ns[-1])
        writes_per_shard = int(spec.count * spec.set_ratio) // N_SHARDS
        policy = make_policy(
            "staggered",
            period_ns=duration // ROUNDS,
            n_shards=N_SHARDS,
            dirty_threshold=max(1, writes_per_shard // ROUNDS),
        )
        coordinator = SnapshotCoordinator(self.cluster, policy)
        written: set = set()
        wall_ns: list[int] = []
        zero = b"\x00" * spec.value_size
        value = b"v" * spec.value_size
        routed = ClusterClient.execute
        clock = time.perf_counter_ns

        def timed_execute(client, *command):
            # Times one routed query and checks its reply.  The reply
            # model mirrors run_cluster_workload: SETs write ``value``,
            # keys start as ``prepopulate``'s zero bytes.
            t0 = clock()
            reply = routed(client, *command)
            wall_ns.append(clock() - t0)
            got = reply.value if tamper is None else tamper(reply.value)
            key = command[1]
            if command[0] == b"SET":
                written.add(key)
                want = b"OK"
            else:
                want = value if key in written else zero
            if got != want:
                result.fail(f"{command[0]!r} {key!r}: wrong reply")
            self.check_snapshots(result)
            return reply

        ClusterClient.execute = timed_execute
        try:
            start = time.perf_counter()
            outcome = run_cluster_workload(
                self.cluster, workload, coordinator=coordinator
            )
            run_s = time.perf_counter() - start - self.check_ns / 1e9
        finally:
            ClusterClient.execute = routed
        # A snapshot triggered near the last query may still be in
        # flight; finish it so every triggered snapshot is checked.
        for shard in self.cluster.shards:
            try:
                shard.server.finish_background_job()
            except ReproError as exc:
                result.fail(f"shard {shard.shard_id} snapshot failed: {exc}")
        self.check_snapshots(result)
        result.attempted += len(workload)
        self._check(outcome, len(coordinator.triggered), result)
        self.digest = latency_digest(outcome.merged.latencies_ns)
        return run_s, wall_ns

    def _check(self, outcome, triggered: int, result: Result) -> None:
        if outcome.refused_writes:
            result.fail(f"{outcome.refused_writes} writes refused",
                        count=outcome.refused_writes)
        result.attempted += triggered
        if self.snapshots_done != triggered:
            result.fail(f"{triggered} snapshots triggered, "
                        f"{self.snapshots_done} completed",
                        count=max(1, abs(triggered - self.snapshots_done)))
        for shard_id, done in outcome.snapshots_completed.items():
            if done < MIN_SNAPSHOTS_PER_SHARD:
                result.fail(f"shard {shard_id} completed {done} snapshots, "
                            f"expected at least {MIN_SNAPSHOTS_PER_SHARD}")


@dataclass
class RoundStats:
    """What the rounds of one phase (plain or traced) measured."""

    setups: list = field(default_factory=list)
    run_s: list = field(default_factory=list)
    #: Routed-query wall latencies (ms at host speed 1.0), in chunks of
    #: ``CHUNK``.
    chunks_ms: list = field(default_factory=list)
    setup_faults: list = field(default_factory=list)
    #: Routed queries per wall second of each round's run phase (this
    #: and ``round_qps`` and ``setups`` scaled to host speed 1.0).
    qps: list = field(default_factory=list)
    #: Routed queries per wall second of each whole round: set-up, run
    #: and the output checks.
    round_qps: list = field(default_factory=list)
    queries: int = 0
    #: Host speed over each round's run phase.
    run_speeds: list = field(default_factory=list)


def _cluster_rounds(seed: int, until: float, result: Result, digests: set,
                    tamper: Optional[Callable], probe: SpeedProbe,
                    rec: Optional[layers.Recorder] = None) -> RoundStats:
    """Fresh rounds until ``until``; ``rec`` traces their run phases."""
    stats = RoundStats()
    while True:
        # The last round's cluster is garbage by now (it lived in
        # _one_round's frame); free it first so peak RSS is one round's,
        # whatever the round count.
        gc.collect()
        _one_round(seed, stats, result, digests, tamper, probe, rec)
        if time.perf_counter() >= until:
            return stats


def _one_round(seed: int, stats: RoundStats, result: Result, digests: set,
               tamper: Optional[Callable], probe: SpeedProbe,
               rec: Optional[layers.Recorder]) -> None:
    start = time.perf_counter()
    rnd = ClusterRound(seed)
    run_start = time.perf_counter()
    uninstall = layers.install(rec) if rec is not None else None
    try:
        run_s, walls = rnd.run(result, tamper)
    finally:
        if uninstall is not None:
            uninstall()
    end = time.perf_counter()
    run_speed = probe.speed(run_start, end)
    stats.round_qps.append(len(rnd.workload) / (end - start)
                           / probe.speed(start, end))
    stats.setups.append(rnd.setup_s * probe.speed(start, run_start))
    stats.run_s.append(run_s)
    stats.queries += len(rnd.workload)
    stats.qps.append(len(rnd.workload) / run_s / run_speed)
    stats.run_speeds.append(run_speed)
    stats.setup_faults.append(rnd.setup_faults)
    walls_ms = [ns / 1e6 * run_speed for ns in walls]
    stats.chunks_ms.extend(
        walls_ms[i : i + CHUNK] for i in range(0, len(walls_ms), CHUNK)
    )
    digests.add(rnd.digest)


def run(seed: int, seconds: float, trace: bool,
        tamper: Optional[Callable] = None,
        probe: Optional[SpeedProbe] = None) -> Result:
    """One benchmark run of sim-cluster."""
    result = Result()
    probe = probe or SpeedProbe(enabled=False)
    steal0 = host_cpu_ticks()
    start = time.perf_counter()
    digests: set = set()
    plain = _cluster_rounds(seed, start + (seconds / 2 if trace else seconds),
                            result, digests, tamper, probe)
    if trace:
        rec = layers.Recorder()
        traced = _cluster_rounds(seed, start + seconds, result, digests,
                                 tamper, probe, rec)
    if len(digests) != 1:
        result.fail("simulated latencies differ between rounds of one seed")
    steal = steal_frac(steal0, host_cpu_ticks())
    if not trace:
        result.put("setup_s", median(plain.setups), "s")
        result.put("ops_per_s", median(plain.round_qps), "1/s")
        result.put("sim_qps", median(plain.qps), "1/s")
        # Percentiles of the routed queries' wall latency per chunk of
        # consecutive queries, then the median across chunks.
        for q in (50, 99):
            result.put(f"latency_p{q}_ms",
                       median(percentile(ms, q) for ms in plain.chunks_ms),
                       "ms")
        result.put("peak_rss_mb", vm_hwm_mb(), "MB")
        result.put_ok_frac()
        result.validity.update({"host.steal_frac": steal,
                                "host.run_speed": median(plain.run_speeds),
                                "latency_digest": sorted(digests)[0]})
        return result
    per_layer = layers.layer_metrics(rec.snapshot(), traced.queries,
                                     int(sum(traced.run_s) * 1e9))
    per_layer["mm.setup_faults"] = median(plain.setup_faults)
    per_layer["trace.overhead_frac"] = (
        median(traced.run_s) / median(plain.run_s) - 1.0
    )
    per_layer["host.steal_frac"] = steal
    result.put_all(per_layer)
    return result
