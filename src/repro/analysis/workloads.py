"""Seeded workloads shared by the race-detector tests and checkers.

The race detector is only as good as the schedules it observes, so the
workloads that drive it live in one place: the clean per-engine
workload, the async-fork chaos storm, the page-migration scenario, and
the three *mutations* that re-introduce bugs PR 1 fixed (the two
dropped TLB shootdowns) plus a dropped page lock.  Both the test suite
(``tests/analysis/test_race.py``) and the ``races`` checker in
:mod:`repro.analysis.framework` replay exactly these, which is what
makes ``repro-analyze`` reports reproducible claims about the engines
rather than artifacts of an ad-hoc driver.

Everything here is seeded — same seed, same schedule, same report.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.analysis import hooks
from repro.core.policy import make_fork_engine
from repro.determinism import seeded_random
from repro.errors import ForkError
from repro.kernel.task import Process
from repro.mem.flags import PteFlags, make_pte, pte_frame
from repro.mem.frames import FrameAllocator
from repro.units import MIB, PAGE_SIZE


def _seeded_parent(frames: FrameAllocator, size: int):
    """A parent with ``size`` bytes mapped and every 64th page written."""
    parent = Process(frames, name="parent")
    vma = parent.mm.mmap(size)
    for i in range(0, size, 64 * PAGE_SIZE):
        parent.mm.write_memory(vma.start + i, b"seed%d" % i)
    return parent, vma


def run_engine(engine: str, steps: int = 200, seed: int = 7,
               size: int = 8 * MIB):
    """Fork under ``engine`` with seeded parent activity interleaved.

    The parent keeps writing and reading random pages while the child's
    copy (async) or unshares (ODF) proceed; afterwards the child reads
    a sample of its snapshot.  Returns the engine's fork result.
    """
    rng = seeded_random(seed)
    frames = FrameAllocator()
    parent, vma = _seeded_parent(frames, size)
    res = make_fork_engine(engine).fork(parent)
    for step in range(steps):
        addr = vma.start + rng.randrange(0, size, PAGE_SIZE)
        if rng.random() < 0.5:
            parent.mm.write_memory(addr, b"x%d" % step)
        else:
            parent.mm.read_memory(addr, 16)
        if res.session is not None:
            res.session.child_step()
    if res.session is not None:
        res.session.run_to_completion()
    for i in range(0, size, 256 * PAGE_SIZE):
        res.child.mm.read_memory(vma.start + i, 16)
    return res


def run_chaos(seed: int = 0, forks: int = 6, steps: int = 40,
              size: int = 4 * MIB):
    """A seeded storm of async forks under injected faults.

    Each round forks with a fault plan drawn from ``seed`` (table-alloc
    OOMs, SIGKILLed and hung children), interleaves parent writes with
    child steps, and survives whatever §4.4 failure path fires.  The
    clean engines must stay race-free even on the rollback paths.
    """
    from repro.core.async_fork import AsyncFork
    from repro.faults import (
        SITE_CHILD_COPY,
        SITE_FRAME_ALLOC,
        FaultPlan,
        FaultSpec,
    )

    rng = seeded_random(seed)
    frames = FrameAllocator()
    parent, vma = _seeded_parent(frames, size)
    outcomes = []
    kinds = ("none", "oom", "sigkill", "hang", "oom", "sigkill")
    for round_no in range(forks):
        plan = FaultPlan(seed=seed + round_no)
        kind = kinds[round_no % len(kinds)]
        # The copy finishes within a handful of steps (one PMD table per
        # worker per step), so the windows must be tight to hit it.
        if kind == "oom":
            plan.add(FaultSpec(
                site=SITE_FRAME_ALLOC, kind="oom",
                after=rng.randrange(0, 4), count=1,
                match=lambda d: d["purpose"].endswith("-table"),
            ))
        elif kind in ("sigkill", "hang"):
            plan.add(FaultSpec(
                site=SITE_CHILD_COPY, kind=kind,
                after=rng.randrange(0, 2), count=1, magnitude=3,
            ))
        engine = AsyncFork()
        engine.attach_fault_plan(plan)
        frames.attach_fault_plan(plan)  # oom fires at the allocator
        child = None
        try:
            res = engine.fork(parent)
            child = res.child
            for step in range(steps):
                addr = vma.start + rng.randrange(0, size, PAGE_SIZE)
                parent.mm.write_memory(addr, b"c%d" % step)
                res.session.child_step()
            res.session.run_to_completion()
            outcomes.append("failed" if res.session.failed else "completed")
        except ForkError as exc:
            outcomes.append(type(exc).__name__)
        finally:
            engine.attach_fault_plan(None)
            frames.attach_fault_plan(None)
            if child is not None and child.alive:
                child.exit()
    return outcomes


def run_migration(size: int = 4 * MIB):
    """Async fork racing a page migration in the parent's context.

    Models the NUMA-balancing path: in the faulting process's context,
    take the covering PTE-table page lock, remap one page to a fresh
    frame, shoot the parent's TLB down, drop the old frame, unlock.
    The page lock plus the shootdown order the remap against the copy
    workers — remove either (see :func:`dropped_page_lock`) and the
    detector must flag the remap racing the child's clone of the table.
    """
    frames = FrameAllocator()
    parent = Process(frames, name="parent")
    vma = parent.mm.mmap(size)
    for i in range(0, size, 16 * PAGE_SIZE):
        parent.mm.write_memory(vma.start + i, b"s")

    from repro.core.async_fork import AsyncFork

    res = AsyncFork().fork(parent)
    with hooks.context(("user", parent.mm.name)):
        leaf = parent.mm.page_table.walk_pte_table(vma.start)
        old = leaf.get(0)
        locked = leaf.page.trylock()
        assert locked, "migration needs the PTE-table page lock"
        new_page = frames.alloc("data")
        new_page.get()
        frames.copy_contents(pte_frame(old), new_page.frame)
        leaf.set(0, make_pte(new_page.frame,
                             PteFlags.PRESENT | PteFlags.ACCESSED))
        parent.mm.tlb.flush_page(vma.start)
        frames.page(pte_frame(old)).put()
        leaf.page.unlock()
    res.session.run_to_completion()
    res.child.mm.read_memory(vma.start, 16)
    return res


# ---------------------------------------------------------------------------
# mutations: the bugs PR 1 fixed, re-introduced on purpose
# ---------------------------------------------------------------------------


@contextmanager
def dropped_async_shootdown():
    """M1: async-fork stops flushing the parent span after a table copy."""
    from repro.core.async_fork import AsyncForkSession

    original = AsyncForkSession._shootdown_parent_span
    AsyncForkSession._shootdown_parent_span = lambda self, span: None
    try:
        yield
    finally:
        AsyncForkSession._shootdown_parent_span = original


@contextmanager
def dropped_odf_shootdown():
    """M2: ODF stops shooting down the *other* sharer after an unshare."""
    from repro.kernel.forks.odf import OdfSession

    original = OdfSession._shootdown_other
    OdfSession._shootdown_other = lambda self, mm: None
    try:
        yield
    finally:
        OdfSession._shootdown_other = original


@contextmanager
def dropped_page_lock():
    """M3: the PTE-table page lock silently stops excluding anyone."""
    from repro.mem.page_struct import PageStruct

    original = (PageStruct.trylock, PageStruct.unlock)
    PageStruct.trylock = lambda self: True
    PageStruct.unlock = lambda self: None
    try:
        yield
    finally:
        PageStruct.trylock, PageStruct.unlock = original


#: The three seeded mutations as ``name -> (patch, workload)``; the
#: workload must race under the patch and stay clean without it.
MUTATIONS = {
    "async-shootdown": (dropped_async_shootdown,
                        lambda: run_engine("async")),
    "odf-shootdown": (dropped_odf_shootdown,
                      lambda: run_engine("odf")),
    "page-lock": (dropped_page_lock, run_migration),
}
