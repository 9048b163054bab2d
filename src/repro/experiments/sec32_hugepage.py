"""§3.2's huge-page analysis: why THP cannot fix the fork spike.

Not a numbered figure, but the paper's motivation section makes three
quantitative claims about transparent huge pages that this experiment
verifies against the model:

1. THP *does* make ``fork`` cheap — the page table shrinks by ~512x
   (one PMD entry instead of 512 PTEs per 2 MiB);
2. the page-fault cost explodes — the cited study measured 3.6 µs
   (regular) vs 378 µs (huge), a ~100x penalty, and post-fork CoW
   amplifies every first write to a 2 MiB copy;
3. memory bloats for sparse access — the cited Redis experiment grew
   from 12.2 GB to 20.7 GB (~1.7x) because applications rarely fill
   whole huge pages.

And the §4.2 corollary: Async-fork refuses THP processes because the PMD
R/W bit — its copied-marker — is not free there.
"""

from __future__ import annotations

from repro.config import SimulationProfile
from repro.core.async_fork import AsyncFork
from repro.errors import ConfigurationError
from repro.experiments.registry import register
from repro.kernel.costs import DEFAULT_COSTS
from repro.kernel.task import Process
from repro.mem.frames import FrameAllocator
from repro.mem.hugepage import HUGE_PAGE_SIZE
from repro.metrics.report import Comparison, ExperimentReport, Table
from repro.sim.compact import CompactInstance
from repro.units import PAGE_SIZE


@register("sec3-thp", "Huge pages: cheap fork, costly faults, bloat")
def run(profile: SimulationProfile) -> ExperimentReport:
    """Quantify §3.2's three THP claims + the §4.2 conflict."""
    report = ExperimentReport(
        "sec3-thp", "why transparent huge pages are ruled out"
    )
    costs = DEFAULT_COSTS

    # 1. Page-table shrinkage -> cheap fork.
    table = Table(
        "claim 1 — fork cost with 4KiB pages vs THP",
        ["size GiB", "4KiB-page fork ms", "THP fork ms", "shrinkage"],
    )
    shrink = {}
    for size in (8, 64):
        counts = CompactInstance(size).level_counts()
        regular = costs.fork_call_ns("default", counts)
        thp_counts = {
            "pgd": counts["pgd"],
            "pud": counts["pud"],
            "pmd": counts["pmd"],  # one entry per 2MiB, now huge
            "pte": 0,
        }
        thp = costs.fork_call_ns("default", thp_counts)
        shrink[size] = regular / thp
        table.add_row(size, regular / 1e6, thp / 1e6, f"{shrink[size]:.0f}x")
    report.add_table(table)
    report.check(
        "THP shrinks the fork cost by more than an order of magnitude",
        all(v > 10 for v in shrink.values()),
    )

    # 2. Fault penalty and CoW amplification.
    fault_ratio = costs.huge_fault_ns / (
        costs.fault_overhead_ns + costs.page_copy_ns
    )
    report.comparisons.append(
        Comparison("huge/regular fault cost ratio", 105.0, fault_ratio,
                   unit="x", note="paper cites 3.6us -> 378us")
    )
    report.check(
        "huge faults are ~two orders of magnitude dearer",
        50 <= fault_ratio <= 200,
    )

    frames = FrameAllocator()
    process = Process(frames, name="thp-cow")
    vma = process.mm.mmap_huge(HUGE_PAGE_SIZE)
    process.mm.write_memory(vma.start, b"seed")
    from repro.kernel.forks.default import DefaultFork

    DefaultFork().fork(process)
    before = process.mm.stats["cow_copies"]
    process.mm.write_memory(vma.start, b"x")  # one byte
    amplified = process.mm.stats["cow_copies"] == before + 1
    report.check(
        "one post-fork byte write CoW-copies a whole 2MiB huge page",
        amplified,
    )

    # 3. Memory bloat under sparse access.
    bloat = Table(
        "claim 3 — resident memory for 1000 sparse 64B touches",
        ["page size", "resident MiB"],
    )
    touches = 1000
    stride = 3 * HUGE_PAGE_SIZE // 2  # never two touches per huge page

    frames = FrameAllocator()
    sparse_regular = Process(frames, name="sparse-4k")
    r_vma = sparse_regular.mm.mmap(touches * stride)
    for i in range(touches):
        sparse_regular.mm.write_memory(r_vma.start + i * stride, b"x" * 64)
    regular_resident = sparse_regular.mm.rss * PAGE_SIZE

    frames = FrameAllocator()
    sparse_thp = Process(frames, name="sparse-thp")
    t_vma = sparse_thp.mm.mmap_huge(touches * 2 * HUGE_PAGE_SIZE)
    for i in range(touches):
        sparse_thp.mm.write_memory(
            t_vma.start + i * 2 * HUGE_PAGE_SIZE, b"x" * 64
        )
    thp_resident = sparse_thp.mm.rss * PAGE_SIZE

    bloat.add_row("4 KiB", regular_resident / 2**20)
    bloat.add_row("2 MiB (THP)", thp_resident / 2**20)
    report.add_table(bloat)
    report.comparisons.append(
        Comparison("sparse-access bloat factor", 1.7,
                   thp_resident / regular_resident, unit="x",
                   note="paper cites Redis 12.2GB -> 20.7GB; worst-case "
                        "sparse access is far worse")
    )
    report.check(
        "sparse access bloats resident memory under THP",
        thp_resident > 10 * regular_resident,
    )

    # §4.2: the R/W-bit conflict.
    refused = False
    try:
        AsyncFork().fork(sparse_thp)
    except ConfigurationError:
        refused = True
    report.check(
        "Async-fork refuses a THP process (PMD R/W bit in use)", refused
    )
    return report
