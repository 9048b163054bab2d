"""Figure 3: execution time of the default ``fork`` vs instance size, and
the share of that time spent copying the page table.

The paper finds the call grows roughly linearly from <10 ms (1 GiB) to
>600 ms (64 GiB), with the page-table copy at 97-99.93 % of it; on the
8 GiB instance the 2^12 PMD entries cost ~2 ms and the 2^21 PTEs ~70 ms.
"""

from __future__ import annotations

from repro.config import SimulationProfile
from repro.experiments.registry import register
from repro.kernel.costs import DEFAULT_COSTS
from repro.metrics.report import Comparison, ExperimentReport, Table
from repro.sim.compact import CompactInstance


@register("fig3", "Default fork execution time and page-table-copy share")
def run(profile: SimulationProfile) -> ExperimentReport:
    """Compute the calibrated fork cost across the size sweep."""
    report = ExperimentReport(
        "fig3",
        "default fork() time vs instance size; page-table copy share",
    )
    table = Table(
        "Figure 3 — default fork()",
        ["size GiB", "fork ms", "copy ms", "copy share %"],
    )
    costs = DEFAULT_COSTS
    fork_ms: dict[int, float] = {}
    share: dict[int, float] = {}
    for size in profile.sizes_gb:
        counts = CompactInstance(size).level_counts()
        total = costs.fork_call_ns("default", counts)
        copy = costs.page_table_copy_ns(counts)
        fork_ms[size] = total / 1e6
        share[size] = copy / total * 100.0
        table.add_row(size, total / 1e6, copy / 1e6, share[size])
    report.add_table(table)

    smallest, largest = min(fork_ms), max(fork_ms)
    report.comparisons.extend(
        [
            Comparison("1GiB fork", 10.0, fork_ms[smallest], "ms",
                       "paper: <10ms"),
            Comparison("64GiB fork", 600.0, fork_ms[largest], "ms",
                       "paper: >600ms"),
            Comparison("64GiB copy share", 99.93, share[largest], "%"),
        ]
    )
    report.check("fork time grows monotonically with size",
                 all(fork_ms[a] < fork_ms[b]
                     for a, b in zip(sorted(fork_ms), sorted(fork_ms)[1:])))
    report.check("1GiB fork under 10ms", fork_ms[smallest] < 10.0)
    report.check("64GiB fork over 500ms", fork_ms[largest] > 500.0)
    report.check("copy dominates (>97% everywhere)",
                 all(v > 97.0 for v in share.values()))

    # §3.1 anatomy of the 8GiB instance.
    counts8 = CompactInstance(8).level_counts()
    anatomy = Table(
        "§3.1 — 8GiB page-table anatomy",
        ["level", "present entries", "paper"],
    )
    anatomy.add_row("pgd", counts8["pgd"], 1)
    anatomy.add_row("pud", counts8["pud"], 8)
    anatomy.add_row("pmd", counts8["pmd"], 2**12)
    anatomy.add_row("pte", counts8["pte"], 2**21)
    report.add_table(anatomy)
    report.check(
        "8GiB anatomy matches §3.1",
        counts8
        == {"pgd": 1, "pud": 8, "pmd": 2**12, "pte": 2**21},
    )
    return report
