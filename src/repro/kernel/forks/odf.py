"""On-Demand-Fork (ODF): the shared-page-table baseline.

ODF [Zhao et al., EuroSys'21] makes ``fork()`` return after copying the
page table only down to the PMD level; the 512-entry PTE leaf tables are
*shared* between parent and child, reference-counted in ``struct page``,
and copied lazily when either process first writes under them.  This gives
a microsecond fork call but keeps interrupting the parent for the whole
snapshot period (Figure 11), and the sharing itself causes the TLB
data-leakage, WSS-estimation and NUMA problems of Appendix A.

The session object keeps sharing honest when the *kernel* (not a hardware
write) modifies PTEs: munmap/madvise/mprotect/OOM paths unshare the
affected tables for the modifying process first, so the other process's
snapshot view stays intact.
"""

from __future__ import annotations

from repro.errors import ForkError
from repro.kernel.forks.base import (
    ForkEngine,
    ForkResult,
    ForkSession,
    ForkStats,
)
from repro.kernel.task import Process
from repro.mem import checkpoints as cp
from repro.mem.address_space import AddressSpace
from repro.mem.checkpoints import CheckpointEvent
from repro.mem.cow import clone_pte_table_into
from repro.mem.directory import require_pte_table
from repro.mem.hugepage import HugePage


class OnDemandFork(ForkEngine):
    """Shared-page-table fork at PTE-table granularity."""

    name = "odf"

    def fork(self, parent: Process) -> ForkResult:
        """Share the PTE leaf tables; return in microseconds."""
        return self._fork(parent)

    def _pass_slot(self, pmd, idx, base, leaf, child_mm, stats, marked):
        """Share the PTE table; both processes fault on writes under it."""
        leaf = require_pte_table(leaf)
        child_pmd, child_idx = self._child_slot(child_mm, base)
        child_pmd.set(child_idx, leaf)  # the share
        leaf.page.share_count += 1
        self._write_protect(pmd, idx, marked)
        child_pmd.set_write_protected(child_idx, True)
        stats.pmd_marked += 1

    def _open_session(
        self, parent: Process, child: Process, stats: ForkStats
    ) -> "OdfSession":
        return OdfSession(self, parent, child, stats)


class OdfSession(ForkSession):
    """Bookkeeping that keeps the sharing copy-on-write."""

    def __init__(
        self,
        engine: OnDemandFork,
        parent: Process,
        child: Process,
        stats: ForkStats,
    ) -> None:
        super().__init__(parent, child, stats)
        self.engine = engine
        parent.mm.subscribe(self._on_checkpoint)
        child.mm.subscribe(self._on_checkpoint)

    # ------------------------------------------------------------------

    def _on_checkpoint(self, event: CheckpointEvent) -> None:
        if not self.active:
            return
        if event.name == cp.HANDLE_MM_FAULT:
            if event.write and event.detail.get("pmd_wp"):
                self._unshare_at(event.mm, event.start)
        elif event.name in (cp.ZAP_PMD_RANGE, cp.FOLLOW_PAGE_PTE):
            self._unshare_range(event.mm, event.start, event.end)
        elif event.is_vma_wide:
            self._unshare_range(event.mm, event.start, event.end)

    def _unshare_range(self, mm: AddressSpace, start: int, end: int) -> None:
        for _, _, base in mm.page_table.iter_pmd_slots(start, end):
            self._unshare_at(mm, base)

    def _unshare_at(self, mm: AddressSpace, vaddr: int) -> None:
        """Give ``mm`` a private copy of the table covering ``vaddr``."""
        found = mm.page_table.walk_pmd(vaddr)
        if found is None:
            return
        pmd, idx = found
        leaf = pmd.get(idx)
        if leaf is None or isinstance(leaf, HugePage):
            # Huge slots CoW through the regular huge-fault path.
            return
        leaf = require_pte_table(leaf)
        if leaf.page.share_count == 0:
            # Last sharer already: just drop the software marker.
            pmd.set_write_protected(idx, False)
            return
        reason = "odf:table-cow"
        clock = self.engine.clock
        with clock.kernel_section(reason, self.engine.costs.table_fault_ns()):
            if not leaf.page.trylock():
                raise ForkError(
                    "PTE table lock contention during ODF CoW",
                    phase="table-cow",
                )
            try:
                private = mm.page_table.new_pte_table()
                clone_pte_table_into(leaf, private, mm.frames)
                pmd.set(idx, private)
                pmd.set_write_protected(idx, False)
                leaf.page.share_count -= 1
            finally:
                leaf.page.unlock()
        self.stats.table_faults += 1
        # Flush this process's TLB for the span: its PTE identities changed.
        mm.tlb.flush_all()
        self._shootdown_other(mm)

    def _shootdown_other(self, mm: AddressSpace) -> None:
        """Shoot down the *other* sharer's TLB after a table unshare.

        ``clone_pte_table_into`` also write-protected the remaining
        sharer's entries in the (still shared) source table — the data
        pages are CoW-shared from here on.  That protection downgrade
        needs a shootdown on the other side too, or a stale writable
        translation survives there (the Table 1 class of bug MMSAN
        flags, and the shootdown PR 1's checkers found missing).
        """
        other_mm = (
            self.child.mm if mm is self.parent.mm else self.parent.mm
        )
        other_mm.tlb.flush_all()

    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Stop intercepting; called when the child exits."""
        if not self.active:
            return
        self.active = False
        self.parent.mm.unsubscribe(self._on_checkpoint)
        if self._still_subscribed(self.child.mm):
            self.child.mm.unsubscribe(self._on_checkpoint)

    def cancel(self) -> None:
        """Early retirement is the same as finishing: stop intercepting.

        Sharing needs no rollback — every still-shared table stays valid
        for the parent, and the share counts die with the child's mm.
        """
        self.finish()

    def _still_subscribed(self, mm: AddressSpace) -> bool:
        return self._on_checkpoint in mm.checkpoint_subscribers
