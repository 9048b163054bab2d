"""MMSAN — the memory-management sanitizer.

A :class:`Mmsan` instance watches a set of address spaces that share one
:class:`~repro.mem.frames.FrameAllocator` and audits the invariants the
paper's algorithms depend on:

* ``mapcount-mismatch`` / ``hugepage-mapcount-mismatch`` — the
  ``struct page`` / :class:`~repro.mem.hugepage.HugePage` map counts
  must equal the number of PTEs/PMD slots actually referencing the
  frame across every tracked address space;
* ``dangling-frame`` — a PTE references a frame the allocator has
  already freed;
* ``share-count-mismatch`` — ODF's per-PTE-table share counter must be
  exactly (number of PMD slots sharing the leaf) − 1;
* ``writable-shared-frame`` / ``writable-zero-page`` /
  ``writable-shared-hugepage`` — every CoW-shared frame must be
  write-protected somewhere on its walk path, and nothing may map the
  zero page writable;
* ``shared-table-unmarked`` — a PMD slot referencing an ODF-shared leaf
  must carry the software write-protect marker;
* ``stale-pmd-marker`` / ``marker-desync`` (opt-in ``pmd_markers``) —
  the async-fork copied-marker state machine: a write-protected PMD
  slot is legal only while the leaf is ODF-shared or an active
  async-fork session covers the parent; and the parent's marker must be
  cleared once the child's corresponding slot is populated (§4.2/§4.4);
* ``stale-tlb-translation`` / ``stale-writable-tlb`` — a cached TLB
  entry must agree with the current PTE, and an entry installed by a
  write must not survive a PTE-level write-protection downgrade
  (the missed-shootdown bugs of Table 1);
* ``leaked-reference`` / ``unreachable-frame`` (opt-in
  ``strict_leaks``) — allocated frames no tracked page table can reach.

Audits are read-only and callable at any quiescent point; the fork
engines call them through :mod:`repro.analysis.runtime`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis import hooks
from repro.errors import MmsanViolationError
from repro.mem.flags import pte_frame, pte_present, pte_writable
from repro.mem.frames import FrameAllocator
from repro.mem.hugepage import HugePage
from repro.mem.pte_table import PteTable
from repro.units import ENTRIES_PER_TABLE, PTE_TABLE_SPAN

ZERO_FRAME = 0


@dataclass(frozen=True)
class MmsanViolation:
    """One violated invariant."""

    rule: str
    mm: Optional[str]
    detail: str

    def __str__(self) -> str:
        where = f" [{self.mm}]" if self.mm else ""
        return f"{self.rule}{where}: {self.detail}"


@dataclass
class _LeafSighting:
    """Everywhere one unique PTE table appears across the tracked mms."""

    leaf: PteTable
    #: ``(mm, pmd, idx, base_vaddr)`` per referencing PMD slot.
    slots: list


@dataclass
class _HugeSighting:
    huge: HugePage
    slots: list


class Mmsan:
    """Invariant auditor over the address spaces of one frame allocator."""

    def __init__(self, frames: FrameAllocator) -> None:
        self.frames = frames
        self._mms: list[weakref.ReferenceType] = []

    # -- tracking --------------------------------------------------------

    def track(self, mm) -> None:
        """Start auditing an address space (idempotent)."""
        if mm.frames is not self.frames:
            raise ValueError(
                "address space uses a different frame allocator"
            )
        if any(ref() is mm for ref in self._mms):
            return
        self._mms.append(weakref.ref(mm))

    def track_process(self, process) -> None:
        """Convenience: track a :class:`~repro.kernel.task.Process`."""
        self.track(process.mm)

    def mms(self) -> list:
        """Live, still-materialized tracked address spaces."""
        out = []
        for ref in self._mms:
            mm = ref()
            if mm is None:
                continue
            # A torn-down process frees its PGD frame; skip the husk.
            if not self.frames.is_allocated(mm.page_table.pgd.page.frame):
                continue
            if mm not in out:
                out.append(mm)
        return out

    # -- the walk --------------------------------------------------------

    @staticmethod
    def _iter_pmd_children(mm) -> Iterator[tuple]:
        """Yield ``(pmd, idx, child, base_vaddr)`` over one page table."""
        pgd = mm.page_table.pgd
        for pgd_i, pud in pgd.present_slots():
            for pud_i, pmd in pud.present_slots():
                for pmd_i, child in pmd.present_slots():
                    base = (
                        (pgd_i * ENTRIES_PER_TABLE + pud_i)
                        * ENTRIES_PER_TABLE
                        + pmd_i
                    ) * PTE_TABLE_SPAN
                    yield pmd, pmd_i, child, base

    @staticmethod
    def _table_frames(mm) -> set[int]:
        frames = {mm.page_table.pgd.page.frame}
        for _, pud in mm.page_table.pgd.present_slots():
            frames.add(pud.page.frame)
            for _, pmd in pud.present_slots():
                frames.add(pmd.page.frame)
                for _, child in pmd.present_slots():
                    if isinstance(child, PteTable):
                        frames.add(child.page.frame)
        return frames

    @staticmethod
    def _active_async_sessions(mm) -> list:
        """Fork sessions subscribed to ``mm``'s checkpoints as parent."""
        # Imported here: the fork engines import this module's package.
        from repro.kernel.forks.base import ForkSession

        owners = [getattr(sub, "__self__", None)
                  for sub in mm.checkpoint_subscribers]
        return [
            owner
            for owner in owners
            if isinstance(owner, ForkSession)
            and owner.active
            and owner.parent.mm is mm
        ]

    # -- auditing --------------------------------------------------------

    def audit(
        self,
        *,
        pmd_markers: bool = False,
        strict_leaks: bool = False,
    ) -> list[MmsanViolation]:
        """Cross-check every invariant; return the violations found.

        ``pmd_markers`` additionally validates the async-fork PMD
        copied-marker state machine — keep it off for flows that
        legitimately leave markers behind (a finished ODF session's
        leftovers are cleared lazily by the fault handler).
        ``strict_leaks`` additionally reports unreachable frames with a
        zero mapcount, which only a teardown-shaped test can assert.
        """
        # Checker-internal reads must not appear as program accesses to
        # the race detector.
        with hooks.suppressed():
            return self._audit(
                pmd_markers=pmd_markers, strict_leaks=strict_leaks
            )

    def _audit(
        self,
        *,
        pmd_markers: bool = False,
        strict_leaks: bool = False,
    ) -> list[MmsanViolation]:
        v: list[MmsanViolation] = []
        mms = self.mms()

        leaves: dict[int, _LeafSighting] = {}
        huges: dict[int, _HugeSighting] = {}
        reachable: set[int] = set()
        for mm in mms:
            reachable |= self._table_frames(mm)
            for pmd, idx, child, base in self._iter_pmd_children(mm):
                if isinstance(child, HugePage):
                    sighting = huges.setdefault(
                        id(child), _HugeSighting(child, [])
                    )
                    sighting.slots.append((mm, pmd, idx, base))
                elif isinstance(child, PteTable):
                    sighting = leaves.setdefault(
                        id(child), _LeafSighting(child, [])
                    )
                    sighting.slots.append((mm, pmd, idx, base))

        # Expected data-frame reference counts: each *unique* leaf
        # contributes once, however many PMD slots share it (ODF does
        # not raise data-page mapcounts when sharing a table).
        expected: dict[int, int] = {}
        for sighting in leaves.values():
            for i in sighting.leaf.referencing_indices():
                frame = pte_frame(sighting.leaf.get(i))
                if frame == ZERO_FRAME:
                    continue
                expected[frame] = expected.get(frame, 0) + 1

        for frame, count in sorted(expected.items()):
            reachable.add(frame)
            if not self.frames.is_allocated(frame):
                v.append(
                    MmsanViolation(
                        "dangling-frame",
                        None,
                        f"frame {frame} is referenced by {count} PTE(s) "
                        "but is not allocated",
                    )
                )
                continue
            actual = self.frames.page(frame).mapcount
            if actual != count:
                v.append(
                    MmsanViolation(
                        "mapcount-mismatch",
                        None,
                        f"frame {frame}: mapcount={actual} but "
                        f"{count} PTE(s) reference it",
                    )
                )

        self._check_leaves(v, leaves, pmd_markers)
        self._check_huge(v, huges)
        self._check_tlbs(v, mms)
        self._check_leaks(v, reachable, strict_leaks)
        return v

    def assert_clean(
        self,
        *,
        pmd_markers: bool = False,
        strict_leaks: bool = False,
    ) -> None:
        """Raise :class:`MmsanViolationError` unless the audit is clean."""
        violations = self.audit(
            pmd_markers=pmd_markers, strict_leaks=strict_leaks
        )
        if violations:
            lines = "\n".join(f"  - {viol}" for viol in violations)
            raise MmsanViolationError(
                f"MMSAN found {len(violations)} violation(s):\n{lines}",
                violations,
            )

    # -- individual checks ----------------------------------------------

    def _check_leaves(
        self,
        v: list[MmsanViolation],
        leaves: dict[int, _LeafSighting],
        pmd_markers: bool,
    ) -> None:
        for sighting in leaves.values():
            leaf = sighting.leaf
            occurrences = len(sighting.slots)
            share = leaf.page.share_count
            if share != occurrences - 1:
                v.append(
                    MmsanViolation(
                        "share-count-mismatch",
                        None,
                        f"pte-table frame {leaf.page.frame}: "
                        f"share_count={share} but the table appears in "
                        f"{occurrences} PMD slot(s)",
                    )
                )
            for mm, pmd, idx, base in sighting.slots:
                slot_wp = pmd.is_write_protected(idx)
                if share > 0 and not slot_wp:
                    v.append(
                        MmsanViolation(
                            "shared-table-unmarked",
                            mm.name,
                            f"PMD slot at {base:#x} references shared "
                            f"pte-table frame {leaf.page.frame} without "
                            "the write-protect marker",
                        )
                    )
                self._check_cow(v, mm, leaf, base, slot_wp)
                if pmd_markers and slot_wp and share == 0:
                    self._check_marker(v, mm, pmd, idx, base, leaf)

    def _check_cow(
        self, v: list[MmsanViolation], mm, leaf: PteTable, base: int, slot_wp: bool
    ) -> None:
        from repro.units import PAGE_SIZE

        for i in leaf.present_indices():
            pte = leaf.get(i)
            if not pte_writable(pte):
                continue
            frame = pte_frame(pte)
            vaddr = base + i * PAGE_SIZE
            if frame == ZERO_FRAME:
                v.append(
                    MmsanViolation(
                        "writable-zero-page",
                        mm.name,
                        f"PTE at {vaddr:#x} maps the zero page writable",
                    )
                )
                continue
            if not self.frames.is_allocated(frame):
                continue  # reported as dangling-frame already
            if self.frames.page(frame).mapcount > 1 and not slot_wp:
                v.append(
                    MmsanViolation(
                        "writable-shared-frame",
                        mm.name,
                        f"PTE at {vaddr:#x} maps CoW-shared frame "
                        f"{frame} (mapcount="
                        f"{self.frames.page(frame).mapcount}) writable",
                    )
                )

    def _check_marker(
        self, v: list[MmsanViolation], mm, pmd, idx: int, base: int, leaf: PteTable
    ) -> None:
        """A write-protected PMD slot over an unshared leaf needs an owner."""
        sessions = self._active_async_sessions(mm)
        if not sessions:
            v.append(
                MmsanViolation(
                    "stale-pmd-marker",
                    mm.name,
                    f"PMD slot at {base:#x} is write-protected but the "
                    "leaf is unshared and no active fork session covers "
                    "this address space",
                )
            )
            return
        for session in sessions:
            child_mm = session.child.mm
            found = child_mm.page_table.walk_pmd(base)
            if found is not None and found[0].is_present(found[1]):
                v.append(
                    MmsanViolation(
                        "marker-desync",
                        mm.name,
                        f"PMD slot at {base:#x} still carries the "
                        "copied-marker although the child's slot is "
                        "already populated",
                    )
                )

    def _check_huge(
        self, v: list[MmsanViolation], huges: dict[int, _HugeSighting]
    ) -> None:
        for sighting in huges.values():
            hp = sighting.huge
            occurrences = len(sighting.slots)
            if hp.mapcount != occurrences:
                v.append(
                    MmsanViolation(
                        "hugepage-mapcount-mismatch",
                        None,
                        f"huge page at {sighting.slots[0][3]:#x}: "
                        f"mapcount={hp.mapcount} but {occurrences} PMD "
                        "slot(s) map it",
                    )
                )
            if hp.mapcount > 1 or occurrences > 1:
                for mm, pmd, idx, base in sighting.slots:
                    if not pmd.is_write_protected(idx):
                        v.append(
                            MmsanViolation(
                                "writable-shared-hugepage",
                                mm.name,
                                f"PMD slot at {base:#x} maps a CoW-shared "
                                "huge page writable",
                            )
                        )

    def _check_tlbs(self, v: list[MmsanViolation], mms: list) -> None:
        for mm in mms:
            for page, frame, writable in mm.tlb.entries():
                pte = mm.page_table.get_pte(page)
                if not pte_present(pte) or pte_frame(pte) != frame:
                    v.append(
                        MmsanViolation(
                            "stale-tlb-translation",
                            mm.name,
                            f"TLB caches {page:#x} -> frame {frame} but "
                            "the PTE no longer maps that frame "
                            "(missed shootdown)",
                        )
                    )
                elif writable and not pte_writable(pte):
                    v.append(
                        MmsanViolation(
                            "stale-writable-tlb",
                            mm.name,
                            f"TLB entry for {page:#x} was installed by a "
                            "write but the PTE has been write-protected "
                            "since (downgrade without flush)",
                        )
                    )

    def _check_leaks(
        self, v: list[MmsanViolation], reachable: set[int], strict: bool
    ) -> None:
        for frame in sorted(self.frames.frames()):
            if frame in reachable:
                continue
            page = self.frames.page(frame)
            if page.mapcount > 0:
                v.append(
                    MmsanViolation(
                        "leaked-reference",
                        None,
                        f"frame {frame} (tags={sorted(page.tags)}) has "
                        f"mapcount={page.mapcount} but no tracked page "
                        "table reaches it",
                    )
                )
            elif strict:
                v.append(
                    MmsanViolation(
                        "unreachable-frame",
                        None,
                        f"frame {frame} (tags={sorted(page.tags)}) is "
                        "allocated but unreachable from every tracked "
                        "page table",
                    )
                )
