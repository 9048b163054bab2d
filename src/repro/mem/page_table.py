"""The four-level radix page table (PGD -> PUD -> PMD -> PTE).

This is the data structure whose *copy* dominates the default ``fork()``
(Observation 1 in the paper).  The three fork engines manipulate it in
different ways:

* default fork clones every level top-down inside the parent;
* ODF clones down to the PMD level and *shares* the PTE leaf tables;
* Async-fork clones PGD/PUD in the parent, write-protects the PMD entries,
  and leaves PMD/PTE cloning to the child.

The tree is intentionally explicit rather than flattened: tests and the
leakage demos inspect individual levels, flags and page locks.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis import hooks
from repro.mem.directory import (
    PGD,
    PMD,
    PUD,
    DirectoryTable,
    require_directory,
    require_pte_table,
)
from repro.mem.flags import PTE_PRESENT, make_pte, pte_frame, pte_present
from repro.mem.frames import FrameAllocator
from repro.mem.pte_table import PteTable
from repro.units import (
    ENTRIES_PER_TABLE,
    PAGE_SIZE,
    PGD_INDEX_SHIFT,
    PMD_INDEX_SHIFT,
    PMD_TABLE_SPAN,
    PTE_TABLE_SPAN,
    PUD_INDEX_SHIFT,
    PUD_TABLE_SPAN,
    pgd_index,
    pmd_index,
    pte_index,
    pud_index,
)


class PageTable:
    """A process's page table, rooted at a PGD."""

    def __init__(self, frames: FrameAllocator) -> None:
        self.frames = frames
        self.pgd = DirectoryTable(PGD, frames.alloc("pgd"))

    # -- table allocation ---------------------------------------------------

    def _new_directory(self, level: str) -> DirectoryTable:
        return DirectoryTable(level, self.frames.alloc(f"{level}-table"))

    def new_pte_table(self) -> PteTable:
        """Allocate an empty leaf table (used by fork engines too)."""
        return PteTable(self.frames.alloc("pte-table"))

    # -- walking -------------------------------------------------------------

    def walk_pmd(
        self, vaddr: int, create: bool = False
    ) -> Optional[tuple[DirectoryTable, int]]:
        """Find the PMD table and slot index covering ``vaddr``.

        With ``create`` the intermediate directories are allocated on
        demand; otherwise ``None`` is returned when the path is absent.
        """
        pud = self.pgd.get(pgd_index(vaddr))
        if pud is None:
            if not create:
                return None
            pud = self._new_directory(PUD)
            self.pgd.set(pgd_index(vaddr), pud)
        pud = require_directory(pud, PUD)
        pmd = pud.get(pud_index(vaddr))
        if pmd is None:
            if not create:
                return None
            pmd = self._new_directory(PMD)
            pud.set(pud_index(vaddr), pmd)
        return require_directory(pmd, PMD), pmd_index(vaddr)

    def walk_pte_table(
        self, vaddr: int, create: bool = False
    ) -> Optional[PteTable]:
        """Find (or create) the PTE leaf table covering ``vaddr``."""
        return self.slot_table(self.walk_pmd(vaddr, create=create), create)

    def slot_table(
        self,
        found: Optional[tuple[DirectoryTable, int]],
        create: bool = False,
    ) -> Optional[PteTable]:
        """:meth:`walk_pte_table` below an existing :meth:`walk_pmd` result.

        With ``create`` an empty slot gets a new leaf table; ``found``
        must then be a slot, not ``None``.
        """
        if found is None:
            return None
        pmd, idx = found
        leaf = pmd.get(idx)
        if leaf is None:
            if not create:
                return None
            leaf = self.new_pte_table()
            pmd.set(idx, leaf)
        return require_pte_table(leaf)

    # -- PTE access -----------------------------------------------------------

    def leaf_pte(
        self, found: Optional[tuple[DirectoryTable, int]], vaddr: int
    ) -> tuple[Optional[PteTable], int]:
        """The leaf covering ``vaddr`` and its raw PTE, below an existing
        :meth:`walk_pmd` result.

        Returns ``(None, 0)`` when no leaf table covers ``vaddr``.  Callers
        that go on to update the entry reuse the leaf instead of walking
        the tree again.
        """
        leaf = found[0].get(found[1]) if found is not None else None
        if leaf is None:
            return None, 0
        leaf = require_pte_table(leaf)
        if hooks.ACCESS_HOOKS:
            # The hardware walker's read — the chokepoint the race
            # detector watches (direct ``PteTable.get`` stays silent:
            # checker audits peek through it).
            hooks.notify_access("read", "pte", leaf.page.frame)
        return leaf, leaf.get(pte_index(vaddr))

    def get_pte(self, vaddr: int) -> int:
        """Raw PTE value for ``vaddr`` (0 if unmapped)."""
        return self.leaf_pte(self.walk_pmd(vaddr), vaddr)[1]

    def set_pte(self, vaddr: int, value: int) -> None:
        """Install a raw PTE value, allocating the path as needed."""
        leaf = self.walk_pte_table(vaddr, create=True)
        assert leaf is not None
        leaf.set(pte_index(vaddr), value)

    def map(
        self,
        vaddr: int,
        frame: int,
        flags: int,
        slot: Optional[tuple[DirectoryTable, int]] = None,
    ) -> None:
        """Map ``vaddr`` to ``frame`` with ``flags`` (plus PRESENT).

        ``slot`` is the :meth:`walk_pmd` result for ``vaddr`` when the
        caller already has it; without one the path is walked (and
        allocated) here.
        """
        if slot is None:
            slot = self.walk_pmd(vaddr, create=True)
        leaf = self.slot_table(slot, create=True)
        assert leaf is not None
        leaf.set(pte_index(vaddr), make_pte(frame, int(flags) | PTE_PRESENT))

    def clear_pte(self, vaddr: int) -> int:
        """Clear the PTE for ``vaddr``; return the old value."""
        leaf = self.walk_pte_table(vaddr)
        if leaf is None:
            return 0
        return leaf.clear(pte_index(vaddr))

    def translate(self, vaddr: int) -> Optional[int]:
        """Virtual-to-physical: frame number, or ``None`` if not present."""
        pte = self.get_pte(vaddr)
        if not pte_present(pte):
            return None
        return pte_frame(pte)

    # -- range iteration -------------------------------------------------------

    def iter_pmd_slots(
        self, start: int, end: int, create: bool = False
    ) -> Iterator[tuple[DirectoryTable, int, int]]:
        """Yield ``(pmd_table, slot, base_vaddr)`` over [start, end).

        Each yielded slot covers one PTE table's span (2 MiB).  Without
        ``create``, absent paths are skipped — by walking the directory
        *tree* (only levels that exist) instead of probing every 2 MiB
        slot of the range, so a sparse gigabyte costs three directory
        lookups, not 512 failed walks.  Slot order is ascending either
        way, and slots of an existing PMD are yielded even when empty
        (callers decide what an empty slot means).
        """
        if create:
            vaddr = (start // PTE_TABLE_SPAN) * PTE_TABLE_SPAN
            while vaddr < end:
                found = self.walk_pmd(vaddr, create=True)
                assert found is not None
                pmd, idx = found
                yield pmd, idx, vaddr
                vaddr += PTE_TABLE_SPAN
            return
        lo = (start // PTE_TABLE_SPAN) * PTE_TABLE_SPAN
        if lo >= end:
            return
        last = ((end - 1) // PTE_TABLE_SPAN) * PTE_TABLE_SPAN
        for gi in range(pgd_index(lo), pgd_index(last) + 1):
            pud = self.pgd.get(gi)
            if pud is None:
                continue
            pud = require_directory(pud, PUD)
            g_base = gi << PGD_INDEX_SHIFT
            u_start = pud_index(lo) if g_base <= lo else 0
            u_end = (
                pud_index(last)
                if last < g_base + PUD_TABLE_SPAN
                else ENTRIES_PER_TABLE - 1
            )
            for ui in range(u_start, u_end + 1):
                pmd = pud.get(ui)
                if pmd is None:
                    continue
                pmd = require_directory(pmd, PMD)
                u_base = g_base | (ui << PUD_INDEX_SHIFT)
                m_start = pmd_index(lo) if u_base <= lo else 0
                m_end = (
                    pmd_index(last)
                    if last < u_base + PMD_TABLE_SPAN
                    else ENTRIES_PER_TABLE - 1
                )
                for mi in range(m_start, m_end + 1):
                    yield pmd, mi, u_base | (mi << PMD_INDEX_SHIFT)

    def iter_present_ptes(
        self, start: int, end: int
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(vaddr, pte_value)`` for present PTEs in [start, end)."""
        from repro.mem.hugepage import HugePage  # local: avoid cycle

        for pmd, idx, base in self.iter_pmd_slots(start, end):
            leaf = pmd.get(idx)
            if leaf is None or isinstance(leaf, HugePage):
                continue
            leaf = require_pte_table(leaf)
            pidx = leaf.present_array()
            if not len(pidx):
                continue
            vaddrs = base + pidx * PAGE_SIZE
            if not (start <= base and base + PTE_TABLE_SPAN <= end):
                keep = (vaddrs >= start) & (vaddrs < end)
                pidx = pidx[keep]
                vaddrs = vaddrs[keep]
            values = leaf.entries()[pidx].tolist()
            yield from zip(vaddrs.tolist(), values)

    # -- statistics used by the cost model ---------------------------------------

    def level_counts(self) -> dict[str, int]:
        """Count present entries per level: pgd/pud/pmd slots and PTEs.

        For an 8 GiB instance this reproduces the anatomy of §3.1:
        1 PGD entry, 8 PUD entries, 2^12 PMD entries, 2^21 PTEs.  A huge
        mapping counts as one PMD entry and no PTEs — which is exactly
        why THP makes ``fork`` cheap (§3.2).
        """
        from repro.mem.hugepage import HugePage  # local: avoid cycle

        counts = {"pgd": 0, "pud": 0, "pmd": 0, "pte": 0, "huge": 0}
        for _, pud in self.pgd.present_slots():
            counts["pgd"] += 1
            pud = require_directory(pud, PUD)
            for _, pmd in pud.present_slots():
                counts["pud"] += 1
                pmd = require_directory(pmd, PMD)
                for _, leaf in pmd.present_slots():
                    counts["pmd"] += 1
                    if isinstance(leaf, HugePage):
                        counts["huge"] += 1
                        continue
                    counts["pte"] += require_pte_table(leaf).present_count
        return counts

    # -- bulk helpers shared by fork engines --------------------------------------

    def write_protect_range(self, start: int, end: int) -> int:
        """Clear the RW bit on all present PTEs in [start, end) (CoW arm).

        Whole-table spans use the fast bulk path; boundary tables are
        protected entry by entry so a partial ``mprotect`` does not spill
        over.
        """
        from repro.mem.hugepage import HugePage  # local: avoid cycle

        touched = 0
        for pmd, idx, base in self.iter_pmd_slots(start, end):
            leaf = pmd.get(idx)
            if leaf is None:
                continue
            if isinstance(leaf, HugePage):
                # Huge mappings CoW at PMD granularity: the slot's own
                # write-protect bit is the arm.
                pmd.set_write_protected(idx, True)
                touched += 1
                continue
            leaf = require_pte_table(leaf)
            if start <= base and base + PTE_TABLE_SPAN <= end:
                touched += leaf.write_protect_all()
                continue
            lo_i = pte_index(start) if base < start else 0
            hi_i = (
                pte_index(end - 1) + 1
                if end < base + PTE_TABLE_SPAN
                else ENTRIES_PER_TABLE
            )
            touched += leaf.write_protect_slice(lo_i, hi_i)
        return touched

    def spans(self) -> dict[str, int]:
        """Convenience: spans covered by one table at each level (bytes)."""
        return {
            "pte": PAGE_SIZE,
            "pmd": PTE_TABLE_SPAN,
            "pud": PMD_TABLE_SPAN,
            "pgd": PUD_TABLE_SPAN,
        }
