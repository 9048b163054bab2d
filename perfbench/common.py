"""Helpers shared by the workloads: statistics, /proc readers, results."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass, field
from statistics import median

#: Repository root of the checkout the benchmark runs in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for ready files and per-layer dumps; removed after a run.
TMP = os.path.join(ROOT, ".perfbench_tmp")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """The benchmark cannot produce a result (bad checkout, hung server)."""


#: Seconds one probe block takes on a host of speed 1.0: its median on
#: a 2-vCPU shared VM (Xeon, 2.0 GHz) while the benchmark runs.
REF_BLOCK_S = 48e-6
PROBE_PERIOD_S = 0.02
#: Probe samples kept (a ring): 200 s at one per period.
PROBE_SLOTS = 10_000


def _probe_block() -> None:
    """Fixed interpreter work, independent of the program under test."""
    table = {}
    filler = b"x" * 4096
    for i in range(40):
        key = b"key:%08d" % (i * 7919 % 3000)
        table[key] = filler[i % 256 : i % 256 + 512]
        len(table.get(key, b""))


def _probe_loop(count, samples) -> None:
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except PermissionError:
        return
    parent = os.getppid()
    clock = time.perf_counter
    while os.getppid() == parent:
        _probe_block()  # warms the caches the benchmark evicted
        t0 = clock()
        _probe_block()
        t1 = clock()
        slot = count.value % PROBE_SLOTS
        samples[2 * slot] = t0
        samples[2 * slot + 1] = t1 - t0
        count.value += 1
        time.sleep(PROBE_PERIOD_S)


class SpeedProbe:
    """The speed of the benchmark's CPU, measured while the benchmark runs.

    The VM's vCPUs slow down and speed up by up to 2x within seconds,
    with no steal reported: other tenants share the host, and a 35 s run
    moves with them by 15-25%.  The probe is a real-time (``SCHED_FIFO``)
    process on the benchmark's CPU.  Every ``PROBE_PERIOD_S`` it preempts
    whatever runs there, runs ``_probe_block`` once to warm the caches,
    times a second run (about 50 us) and sleeps again, so it takes about
    0.4% of the CPU.  ``speed(a, b)`` is ``REF_BLOCK_S`` over the median
    block time between two moments: a timing multiplied by it, or a rate
    divided by it, reads as on a host of speed 1.0.  The block does not touch the program, so a change to
    the program moves the timings and not the speed.  Where real-time
    priority is not allowed there is no probe and every speed is 1.0.
    """

    def __init__(self, enabled: bool = True) -> None:
        ctx = multiprocessing.get_context("fork")
        self.count = ctx.RawValue("q", 0)
        self.samples = ctx.RawArray("d", 2 * PROBE_SLOTS)
        self.proc = None
        if enabled:
            self.proc = ctx.Process(target=_probe_loop,
                                    args=(self.count, self.samples),
                                    daemon=True)

    def __enter__(self) -> "SpeedProbe":
        if self.proc is not None:
            self.proc.start()
            deadline = time.perf_counter() + 10.0
            while self.count.value < 3:
                if not self.proc.is_alive():
                    # No real-time priority here: run without a probe.
                    self.proc.join()
                    self.proc = None
                    break
                if time.perf_counter() > deadline:
                    self.__exit__()
                    raise BenchError("speed probe did not start")
                time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        if self.proc is not None and self.proc.is_alive():
            self.proc.kill()
        if self.proc is not None:
            self.proc.join(timeout=10)

    def speed(self, start: float, end: float) -> float:
        """Host speed between two ``time.perf_counter()`` readings
        (1.0 without a probe)."""
        if self.proc is None:
            return 1.0
        n = self.count.value
        times = [
            self.samples[2 * (i % PROBE_SLOTS) + 1]
            for i in range(max(0, n - PROBE_SLOTS), n)
            if start <= self.samples[2 * (i % PROBE_SLOTS)] <= end
        ]
        if not times:
            raise BenchError("no speed probe sample in a measured span")
        return REF_BLOCK_S / median(times)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in [0, 100])."""
    if not values:
        raise BenchError("no samples to take a percentile of")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


@dataclass
class Result:
    """One run's verdict and metrics, printed as the last stdout line."""

    attempted: int = 0
    failed: int = 0
    #: Human-readable reasons for every failed check.
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Load-generator validity numbers, printed beside every run.
    validity: dict[str, float] = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(reason)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def put_all(self, per_layer: dict[str, float]) -> None:
        """Every per-layer metric; ones the workload lacks read 0."""
        from perfbench.layers import PER_LAYER_UNITS

        unknown = set(per_layer) - set(PER_LAYER_UNITS)
        if unknown:
            raise BenchError(f"undeclared per-layer metrics {sorted(unknown)}")
        for name, unit in PER_LAYER_UNITS.items():
            self.put(name, per_layer.get(name, 0.0), unit)

    def put_ok_frac(self) -> None:
        """Share of attempted operations that passed their checks."""
        ok = (self.attempted - self.failed) / max(1, self.attempted)
        self.put("ok_frac", max(0.0, ok), "frac")

    def emit(self) -> str:
        doc = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
        return json.dumps(doc)
