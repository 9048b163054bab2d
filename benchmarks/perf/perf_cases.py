"""Pinned perf-benchmark cases for the mm/fork hot paths.

Each case is a (setup, op) pair usable both by the pytest-benchmark
suite (``test_micro_perf.py`` / ``test_macro_perf.py``) and by the
allocation-counting pass in :mod:`scripts.bench_perf`.  The cases only
touch APIs that predate the vectorized substrate, so the same suite can
benchmark any revision — that is how the checked-in baselines under
``benchmarks/baselines/`` were produced.

The micro cases model the paper's hot operations:

``pte_clone``
    :func:`repro.mem.cow.clone_pte_table_into` on a full 512-entry leaf
    table — the primitive behind every default fork, Async-fork child
    copy/proactive sync, and ODF table CoW.
``wp_sweep``
    ``write_protect_range`` over a deliberately unaligned range (full
    tables plus two partial boundary tables), i.e. the CoW arm of an
    ``mprotect``/fork sweep.
``fault_storm``
    First-touch write faults over a 4 MiB VMA — the post-fork fault
    storm of Figures 9/10.
``tlb_flush``
    A 2 MiB-range TLB shootdown against a warm TLB, as issued after
    every table copy.

The macro cases regenerate experiment points:

``fig3_fork``
    A functional-tier default ``fork()`` of a process with a profile-
    scaled resident set (the page-table copy the paper's Figure 3
    times).
``async_drain``
    Async-fork call plus a full child-copy drain on the same instance.
``fig45_point``
    One ``run_point`` of the Figure 4/5 latency experiment (default
    fork, 1 GiB) with a profile-scaled query count.
``fig45_sweep``
    A full fig4/5 sweep regeneration (three sizes x three methods) on
    the vectorized timelines.
``cluster_round``
    One figx-cluster run (default fork, staggered policy): the
    per-shard ``free_at`` + machine-wide ``kernel_busy`` solve under a
    live coordinator.
"""

from __future__ import annotations

from repro.config import SimulationProfile
from repro.kernel.forks.default import DefaultFork
from repro.mem.address_space import MMAP_BASE, AddressSpace
from repro.mem.cow import clone_pte_table_into
from repro.mem.flags import PteFlags, make_pte
from repro.mem.frames import FrameAllocator
from repro.mem.page_table import PageTable
from repro.mem.pte_table import PteTable
from repro.units import ENTRIES_PER_TABLE, MIB, PAGE_SIZE, PTE_TABLE_SPAN

#: Pinned benchmark ids -> human description, used by scripts/bench_perf.py
#: to validate that a run produced every gated benchmark.
PINNED = {
    "micro.pte_clone": "clone one full 512-entry PTE table (CoW arm)",
    "micro.wp_sweep": "write-protect sweep over 16 tables + boundaries",
    "micro.fault_storm": "1024 first-touch write faults (4 MiB VMA)",
    "micro.tlb_flush": "2 MiB TLB range shootdown, warm TLB",
    "macro.fig3_fork": "functional default fork, profile-scaled RSS",
    "macro.async_drain": "async fork + full child-copy drain",
    "macro.fig45_point": "fig4/5 latency point, default fork @ 1 GiB",
    "macro.fig45_sweep": "fig4/5 sweep regeneration, vectorized timeline",
    "macro.cluster_round": "one figx-cluster run (default, staggered)",
}


# ---------------------------------------------------------------------------
# micro cases
# ---------------------------------------------------------------------------


def setup_pte_clone():
    """A full source table (distinct mapped frames) and an empty dst."""
    frames = FrameAllocator()
    src = PteTable(frames.alloc("pte-table"))
    for i in range(ENTRIES_PER_TABLE):
        page = frames.alloc("data")
        page.get()
        src.set(i, make_pte(page.frame, PteFlags.PRESENT | PteFlags.RW))
    dst = PteTable(frames.alloc("pte-table"))
    return (src, dst, frames), {}


def op_pte_clone(src, dst, frames):
    return clone_pte_table_into(src, dst, frames)


#: wp_sweep geometry: 16 full tables plus a half table on each side.
WP_FULL_TABLES = 16
WP_BOUNDARY_PAGES = 256

_WP_LO = MMAP_BASE + WP_BOUNDARY_PAGES * PAGE_SIZE
_WP_HI = _WP_LO + WP_FULL_TABLES * PTE_TABLE_SPAN + WP_BOUNDARY_PAGES * PAGE_SIZE


class _WpSweepState:
    """Reusable page table for the write-protect sweep (rebuilt RW bits)."""

    def __init__(self) -> None:
        self.frames = FrameAllocator()
        self.pt = PageTable(self.frames)
        total_tables = WP_FULL_TABLES + 2
        for t in range(total_tables):
            base = MMAP_BASE + t * PTE_TABLE_SPAN
            for i in range(ENTRIES_PER_TABLE):
                page = self.frames.alloc("data")
                page.get()
                self.pt.map(
                    base + i * PAGE_SIZE, page.frame, PteFlags.RW
                )

    def rearm(self) -> None:
        """Re-set the RW bit on every mapped page (undo the sweep)."""
        total_tables = WP_FULL_TABLES + 2
        for t in range(total_tables):
            base = MMAP_BASE + t * PTE_TABLE_SPAN
            leaf = self.pt.walk_pte_table(base)
            assert leaf is not None
            for i in range(ENTRIES_PER_TABLE):
                leaf.add_flags(i, PteFlags.RW)


_WP_STATE: _WpSweepState | None = None


def setup_wp_sweep():
    global _WP_STATE
    if _WP_STATE is None:
        _WP_STATE = _WpSweepState()
    else:
        _WP_STATE.rearm()
    return (_WP_STATE.pt,), {}


def op_wp_sweep(pt: PageTable):
    return pt.write_protect_range(_WP_LO, _WP_HI)


FAULT_STORM_PAGES = 1024


def setup_fault_storm():
    frames = FrameAllocator()
    mm = AddressSpace(frames, name="bench")
    vma = mm.mmap(FAULT_STORM_PAGES * PAGE_SIZE)
    return (mm, vma.start), {}


def op_fault_storm(mm: AddressSpace, start: int):
    handle = mm.handle_fault
    for i in range(FAULT_STORM_PAGES):
        handle(start + i * PAGE_SIZE, write=True)
    return FAULT_STORM_PAGES


TLB_WARM_PAGES = 4096
TLB_FLUSH_SPAN = PTE_TABLE_SPAN  # 512 pages


def setup_tlb_flush():
    frames = FrameAllocator()
    mm = AddressSpace(frames, name="bench")
    for i in range(TLB_WARM_PAGES):
        mm.tlb.insert(MMAP_BASE + i * PAGE_SIZE, i + 1, writable=i % 2 == 0)
    return (mm,), {}


def op_tlb_flush(mm: AddressSpace):
    lo = MMAP_BASE + 1024 * PAGE_SIZE
    mm._flush_tlb_range(lo, lo + TLB_FLUSH_SPAN)
    return TLB_FLUSH_SPAN // PAGE_SIZE


# ---------------------------------------------------------------------------
# macro cases
# ---------------------------------------------------------------------------


def fig3_rss_mib(profile: SimulationProfile) -> int:
    """Resident-set size (MiB) forked by the fig3 macro case."""
    return {"quick": 64, "paper-small": 256}.get(profile.name, 512)


def _build_parent(frames: FrameAllocator, mib: int):
    from repro.kernel.task import Process

    parent = Process(frames, name="bench-parent")
    vma = parent.mm.mmap(mib * MIB)
    base = vma.start
    handle = parent.mm.handle_fault
    for off in range(0, mib * MIB, PAGE_SIZE):
        handle(base + off, write=True)
    return parent


def setup_fig3_fork(profile: SimulationProfile):
    frames = FrameAllocator()
    parent = _build_parent(frames, fig3_rss_mib(profile))
    return (parent,), {}


def op_fig3_fork(parent):
    engine = DefaultFork()
    return engine.fork(parent)


def setup_async_drain(profile: SimulationProfile):
    frames = FrameAllocator()
    parent = _build_parent(frames, fig3_rss_mib(profile))
    return (parent,), {}


def op_async_drain(parent):
    from repro.core.async_fork import AsyncFork

    engine = AsyncFork()
    result = engine.fork(parent)
    result.session.run_to_completion()
    return result


def fig45_queries(profile: SimulationProfile) -> int:
    """Query count for the fig4/5 macro point (profile-scaled)."""
    return min(profile.query_count, {"quick": 100_000}.get(profile.name, 400_000))


def setup_fig45_point(profile: SimulationProfile):
    from repro.experiments import common

    common.clear_cache()
    scaled = profile.scaled(
        query_count=fig45_queries(profile), repeats=1
    )
    return (scaled,), {}


def op_fig45_point(scaled: SimulationProfile):
    from repro.experiments.common import run_point

    return run_point(scaled, size_gb=1, method="default")


def setup_fig45_sweep(profile: SimulationProfile):
    from repro.experiments import common

    common.clear_cache()
    # The profile's own size ladder (all three methods per size), one
    # repeat, profile-scaled query count: a faithful single-seed sweep
    # regeneration kept affordable for every gate run.
    scaled = profile.scaled(
        query_count=fig45_queries(profile),
        repeats=1,
    )
    return (scaled,), {}


def op_fig45_sweep(scaled: SimulationProfile):
    from repro.experiments import fig04_05_def_latency

    return fig04_05_def_latency.run(scaled)


def setup_cluster_round(profile: SimulationProfile):
    return (profile,), {}


def op_cluster_round(profile: SimulationProfile):
    from repro.experiments.figX_cluster import _one_run

    return _one_run(profile, "default", "staggered", 0)


# ---------------------------------------------------------------------------
# the case table
# ---------------------------------------------------------------------------

#: bench id -> (setup, op, rounds, profile_aware)
CASES = {
    "micro.pte_clone": (setup_pte_clone, op_pte_clone, 30, False),
    "micro.wp_sweep": (setup_wp_sweep, op_wp_sweep, 20, False),
    "micro.fault_storm": (setup_fault_storm, op_fault_storm, 10, False),
    "micro.tlb_flush": (setup_tlb_flush, op_tlb_flush, 20, False),
    "macro.fig3_fork": (setup_fig3_fork, op_fig3_fork, 5, True),
    "macro.async_drain": (setup_async_drain, op_async_drain, 5, True),
    "macro.fig45_point": (setup_fig45_point, op_fig45_point, 3, True),
    "macro.fig45_sweep": (setup_fig45_sweep, op_fig45_sweep, 3, True),
    "macro.cluster_round": (setup_cluster_round, op_cluster_round, 3, True),
}


def sim_allocs(bench_id: str, profile: SimulationProfile) -> int:
    """Simulated frame allocations per operation (deterministic).

    Runs the case once outside any timer and reports how many simulated
    physical frames the operation itself allocated.  This is the
    "allocation count" column of BENCH_PR4.json: it catches accidental
    algorithmic regressions (e.g. a clone that starts allocating per
    PTE) independently of wall-clock noise.
    """
    setup, op, _, profile_aware = CASES[bench_id]
    args, kwargs = setup(profile) if profile_aware else setup()
    frames = _find_frames(args)
    if frames is None:
        # Timing-tier cases (fig45_point) have no functional allocator.
        return 0
    before = frames.alloc_count
    op(*args, **kwargs)
    return frames.alloc_count - before


def _find_frames(args) -> FrameAllocator | None:
    for arg in args:
        if isinstance(arg, FrameAllocator):
            return arg
        frames = getattr(arg, "frames", None)
        if isinstance(frames, FrameAllocator):
            return frames
        mm = getattr(arg, "mm", None)
        if mm is not None and isinstance(
            getattr(mm, "frames", None), FrameAllocator
        ):
            return mm.frames
    return None
