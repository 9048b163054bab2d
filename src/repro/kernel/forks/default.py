"""The stock ``fork()``: the parent copies everything, synchronously.

This is the baseline whose latency spikes motivate the paper: the parent
stays in kernel mode for the *entire* page-table copy (Figure 3 shows the
copy is ≥97 % of the call), so every query arriving meanwhile waits.
"""

from __future__ import annotations

from repro.kernel.forks.base import ForkEngine, ForkResult, ForkStats
from repro.kernel.task import Process
from repro.mem.cow import clone_pte_table_into
from repro.mem.directory import require_pte_table


class DefaultFork(ForkEngine):
    """Copy-everything fork with copy-on-write data pages."""

    name = "default"

    def fork(self, parent: Process) -> ForkResult:
        """Clone the whole page table inside the parent's call."""
        return self._fork(parent)

    def _pass_slot(self, pmd, idx, base, leaf, child_mm, stats, marked):
        """Copy the PTE table into a fresh child table."""
        leaf = require_pte_table(leaf)
        child_pmd, child_idx = self._child_slot(child_mm, base)
        child_leaf = child_mm.page_table.new_pte_table()
        copied = clone_pte_table_into(leaf, child_leaf, child_mm.frames)
        child_pmd.set(child_idx, child_leaf)
        stats.parent_pte_entries += copied

    def _undo(self, parent: Process) -> None:
        # The tables cloned before the failure write-protected parent
        # PTEs too; like dup_mmap's exit path, flush on failure as well.
        parent.mm.tlb.flush_all()

    def _open_session(
        self, parent: Process, child: Process, stats: ForkStats
    ) -> None:
        # Write-protecting the parent's PTEs invalidates cached
        # translations; the kernel flushes the TLB before returning.
        parent.mm.tlb.flush_all()
        return None
