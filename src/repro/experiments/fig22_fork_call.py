"""Figure 22 (Appendix C): how fast the parent returns from the fork call.

Both Async-fork and ODF remove the dominant page-table copy from the call;
at 64 GiB the paper measures 0.61 ms (Async-fork) vs 1.1 ms (ODF) — ODF is
slightly slower because it initializes per-table sharing counters, whereas
Async-fork only flips the PMD R/W bits.

This experiment validates the cost model against the *functional* engines
too: it builds a small real instance, forks it with each engine, and
checks the simulated-clock durations ordering.
"""

from __future__ import annotations

from repro.config import SimulationProfile
from repro.core.policy import make_fork_engine
from repro.experiments.registry import register
from repro.kernel.costs import DEFAULT_COSTS
from repro.kernel.task import Process
from repro.mem.frames import FrameAllocator
from repro.metrics.report import Comparison, ExperimentReport, Table
from repro.sim.compact import CompactInstance
from repro.units import MIB


@register("fig22", "Fork-call return time: Async-fork vs ODF")
def run(profile: SimulationProfile) -> ExperimentReport:
    """Model-level sweep + functional cross-check on a small instance."""
    report = ExperimentReport(
        "fig22", "time until the parent returns from the fork call"
    )
    table = Table(
        "Figure 22 — fork call duration (ms)",
        ["size GiB", "Async-fork", "ODF", "default (Fig.3)"],
    )
    costs = DEFAULT_COSTS
    values = {}
    for size in profile.sizes_gb:
        counts = CompactInstance(size).level_counts()
        asy = costs.fork_call_ns("async", counts) / 1e6
        odf = costs.fork_call_ns("odf", counts) / 1e6
        dflt = costs.fork_call_ns("default", counts) / 1e6
        values[size] = (asy, odf, dflt)
        table.add_row(size, asy, odf, dflt)
    report.add_table(table)

    big = max(profile.sizes_gb)
    report.comparisons.extend(
        [
            Comparison("Async-fork call @64GiB", 0.61, values[big][0]),
            Comparison("ODF call @64GiB", 1.1, values[big][1]),
        ]
    )
    report.check(
        "Async-fork call faster than ODF call at every size",
        all(asy < odf for asy, odf, _ in values.values()),
    )
    report.check(
        "both are orders of magnitude below the default fork at 64GiB",
        values[big][0] < 0.01 * values[big][2]
        and values[big][1] < 0.01 * values[big][2],
    )

    # Functional cross-check on a 32 MiB instance: same ordering.
    durations = {}
    for name in ("async", "odf", "default"):
        frames = FrameAllocator()
        parent = Process(frames, name="fig22")
        vma = parent.mm.mmap(32 * MIB)
        step = 4096
        for offset in range(0, 32 * MIB, step):
            parent.mm.write_memory(vma.start + offset, b"x")
        result = make_fork_engine(name).fork(parent)
        durations[name] = result.stats.parent_call_ns
        if result.session is not None:
            result.session.run_to_completion()
    func = Table(
        "functional engines, 32MiB instance (simulated clock)",
        ["engine", "parent call (us)"],
    )
    for name, ns in durations.items():
        func.add_row(name, ns / 1e3)
    report.add_table(func)
    report.check(
        "functional tier reproduces the ordering async < odf < default",
        durations["async"] < durations["odf"] < durations["default"],
    )
    return report
