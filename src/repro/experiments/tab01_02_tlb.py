"""Tables 1 & 2: the shared-page-table data-leakage scenario.

Table 1 walks through a page migration while parent and child share a
page table (ODF): the OS invalidates the PTE through the parent, flushes
the *parent's* TLB, then loops over the other processes looking for a PTE
that still reads "V -> X" — but the shared PTE already reads "none
present", so the child is skipped and its TLB keeps the stale translation.
After the OS maps V to the new frame Y and frame X is recycled to another
owner, the child's future reads of V hit the stale TLB entry and return
the new owner's data: a leak, and an inconsistent snapshot.

Table 2 replays the identical migration under Async-fork: page tables are
private, the PTE-table page lock serializes the migration against the
child's copy, and whichever order they run in, the child ends up with the
correct mapping and no stale TLB entry.

This experiment drives the *functional* substrate — real page tables,
real TLBs, the real migration loop from :mod:`repro.mem.reclaim` — and
also demonstrates Appendix A's working-set-size distortion.
"""

from __future__ import annotations

from repro.config import SimulationProfile
from repro.core.async_fork import AsyncFork
from repro.experiments.registry import register
from repro.kernel.forks.odf import OnDemandFork
from repro.kernel.task import Process
from repro.mem.frames import FrameAllocator
from repro.mem.reclaim import migrate_page
from repro.metrics.report import ExperimentReport, Table

SECRET = b"TENANT-B-SECRET!"
SNAPSHOT_VALUE = b"snapshot-value-A"


def _build(engine_cls):
    frames = FrameAllocator(reuse_freed=True)
    parent = Process(frames, name="redis")
    vma = parent.mm.mmap(1 << 21)  # one PTE-table span
    vaddr = vma.start
    parent.mm.write_memory(vaddr, SNAPSHOT_VALUE)
    engine = engine_cls()
    result = engine.fork(parent)
    return frames, parent, result, vaddr


def run_odf_leak() -> dict:
    """Reproduce Table 1: returns the observed states per step."""
    frames, parent, result, vaddr = _build(OnDemandFork)
    child = result.child
    # The child starts persisting: it reads V, caching V -> X in its TLB.
    assert child.mm.read_memory(vaddr, len(SNAPSHOT_VALUE)) == SNAPSHOT_VALUE
    old_frame = child.mm.tlb.cached(vaddr)
    # Memory compaction migrates the page.  The kernel's loop skips the
    # child: the shared PTE no longer reads "V -> X" once the parent's
    # update went in.
    report = migrate_page([parent.mm, child.mm], vaddr, frames)
    # Frame X is recycled to another owner who stores a secret in it.
    victim = frames.alloc("data")
    reused_x = victim.frame == report.old_frame
    if reused_x:
        frames.write(victim.frame, 0, SECRET)
    stale_tlb = child.mm.tlb.cached(vaddr)
    pte_frame_now = child.mm.page_table.translate(vaddr)
    leaked = child.mm.read_memory(vaddr, len(SECRET))
    result.session.finish()
    return {
        "old_frame": report.old_frame,
        "new_frame": report.new_frame,
        "skipped": report.skipped,
        "tlb_before": old_frame,
        "tlb_after": stale_tlb,
        "pte_frame": pte_frame_now,
        "frame_reused": reused_x,
        "read_value": leaked,
        "leaked": leaked == SECRET,
        "tlb_stale": stale_tlb is not None
        and pte_frame_now is not None
        and stale_tlb != pte_frame_now,
    }


def run_async_no_leak(migrate_before_copy: bool = True) -> dict:
    """Reproduce Table 2: same migration, Async-fork, no leak."""
    frames, parent, result, vaddr = _build(AsyncFork)
    child = result.child
    session = result.session
    if not migrate_before_copy:
        session.run_to_completion()
    # Migration: with private tables the loop updates everyone it finds;
    # a not-yet-copied child simply has no PTE (it will copy the updated
    # one later, serialized by the PTE-table page lock).
    report = migrate_page([parent.mm, child.mm], vaddr, frames)
    victim = frames.alloc("data")
    if victim.frame == report.old_frame:
        frames.write(victim.frame, 0, SECRET)
    if migrate_before_copy:
        session.run_to_completion()
    value = child.mm.read_memory(vaddr, len(SNAPSHOT_VALUE))
    stale_tlb = child.mm.tlb.cached(vaddr)
    pte_frame_now = child.mm.page_table.translate(vaddr)
    return {
        "old_frame": report.old_frame,
        "new_frame": report.new_frame,
        "skipped": report.skipped,
        "read_value": value,
        "consistent": value == SNAPSHOT_VALUE,
        "tlb_stale": stale_tlb is not None
        and pte_frame_now is not None
        and stale_tlb != pte_frame_now,
    }


def run_wss_distortion() -> dict:
    """Appendix A: the child's reads pollute the parent's WSS under ODF."""
    distortion = {}
    for name, engine_cls in (("odf", OnDemandFork), ("async", AsyncFork)):
        frames = FrameAllocator()
        parent = Process(frames, name="redis")
        vma = parent.mm.mmap(1 << 21)
        for offset in range(0, 64 * 4096, 4096):
            parent.mm.write_memory(vma.start + offset, b"v")
        parent.mm.clear_accessed_bits()
        result = engine_cls().fork(parent)
        session = result.session
        session.run_to_completion()
        # The idle parent touches nothing; the child reads everything.
        for offset in range(0, 64 * 4096, 4096):
            result.child.mm.read_memory(vma.start + offset, 1)
        distortion[name] = parent.mm.estimate_wss()
        session.cancel()
    return distortion


@register("tab1-2", "Shared-page-table data leakage (and WSS distortion)")
def run(profile: SimulationProfile) -> ExperimentReport:
    """Drive the functional substrate through Tables 1 and 2."""
    report = ExperimentReport(
        "tab1-2", "page migration under shared vs private page tables"
    )
    odf = run_odf_leak()
    table1 = Table(
        "Table 1 — ODF (shared page table): migration skips the child",
        ["observation", "value"],
    )
    table1.add_row("migration skipped processes", ", ".join(odf["skipped"]))
    table1.add_row("child TLB still maps V ->", odf["tlb_after"])
    table1.add_row("child PTE now maps V ->", odf["pte_frame"])
    table1.add_row("freed frame recycled to tenant B", odf["frame_reused"])
    table1.add_row("child read of V returns", odf["read_value"])
    table1.add_row("DATA LEAKED", odf["leaked"])
    report.add_table(table1)

    asy_before = run_async_no_leak(migrate_before_copy=True)
    asy_after = run_async_no_leak(migrate_before_copy=False)
    table2 = Table(
        "Table 2 — Async-fork (private page tables): both orders safe",
        ["scenario", "child read", "consistent", "stale TLB"],
    )
    table2.add_row(
        "migrate before child copies", asy_before["read_value"],
        asy_before["consistent"], asy_before["tlb_stale"],
    )
    table2.add_row(
        "migrate after child copies", asy_after["read_value"],
        asy_after["consistent"], asy_after["tlb_stale"],
    )
    report.add_table(table2)

    wss = run_wss_distortion()
    table3 = Table(
        "Appendix A — parent WSS estimate after an idle parent",
        ["engine", "accessed PTEs attributed to the parent"],
    )
    for name, value in wss.items():
        table3.add_row(name, value)
    report.add_table(table3)

    report.check("ODF leaks through the stale TLB", odf["leaked"])
    report.check("ODF leaves the child TLB inconsistent", odf["tlb_stale"])
    report.check(
        "Async-fork is consistent when migration precedes the copy",
        asy_before["consistent"] and not asy_before["tlb_stale"],
    )
    report.check(
        "Async-fork is consistent when migration follows the copy",
        asy_after["consistent"] and not asy_after["tlb_stale"],
    )
    report.check(
        "shared tables pollute the parent's WSS; private ones do not",
        wss["odf"] > 0 and wss["async"] == 0,
    )
    return report
