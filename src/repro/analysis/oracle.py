"""The snapshot-consistency oracle.

Fork-based snapshotting promises the child an immutable copy of the
parent's memory *as of the fork call* — that is the whole point of
BGSAVE.  The oracle makes the promise checkable: :meth:`capture`
fingerprints the parent's logical memory (page digests keyed by virtual
address, including swapped-out and huge-page contents) at fork-call
time, and :meth:`verify` diffs a child address space against the
fingerprint after the snapshot materializes.

Two verification modes:

* :meth:`verify` walks the child's page table directly — the snapshot
  the child's *page tables* describe.  Used by the runtime probes after
  every fork in the test matrix.
* :meth:`verify_observed` reads through ``read_memory`` and therefore
  honours the child's TLB, which is exactly how the Table 1 stale-TLB
  leakage corrupts a snapshot while the page tables look consistent.
  ``examples/data_leakage_demo.py`` becomes the automated regression
  ``tests/analysis/test_oracle.py::test_odf_stale_tlb_leak_is_caught``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.analysis import hooks
from repro.errors import SnapshotConsistencyError
from repro.mem.flags import PteFlags, pte_frame, pte_present
from repro.mem.hugepage import HUGE_PAGE_SIZE, HugePage
from repro.mem.pte_table import PteTable
from repro.units import ENTRIES_PER_TABLE, PAGE_SIZE, PTE_TABLE_SPAN


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


_ZERO_PAGE_DIGEST = _digest(bytes(PAGE_SIZE))
_ZERO_HUGE_DIGEST = _digest(bytes(HUGE_PAGE_SIZE))


@dataclass(frozen=True)
class SnapshotMismatch:
    """One divergence between fingerprint and materialized snapshot."""

    kind: str
    vaddr: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.vaddr:#x}: {self.detail}"


class SnapshotOracle:
    """A fork-time fingerprint of one address space."""

    def __init__(
        self,
        pages: dict[int, bytes],
        huge: dict[int, bytes],
        source: str,
    ) -> None:
        #: page virtual address -> content digest
        self.pages = pages
        #: huge-page base virtual address -> content digest
        self.huge = huge
        self.source = source

    # -- capture ---------------------------------------------------------

    @classmethod
    def capture(cls, mm) -> "SnapshotOracle":
        """Fingerprint ``mm``'s logical memory right now."""
        # Checker-internal reads must not appear as program accesses to
        # the race detector.
        with hooks.suppressed():
            return cls._capture(mm)

    @classmethod
    def _capture(cls, mm) -> "SnapshotOracle":
        pages: dict[int, bytes] = {}
        huge: dict[int, bytes] = {}
        for base, child in cls._iter_pmd_slots(mm):
            if isinstance(child, HugePage):
                huge[base] = _digest(child.read(0, HUGE_PAGE_SIZE))
                continue
            if not isinstance(child, PteTable):
                continue
            for i in range(ENTRIES_PER_TABLE):
                pte = child.get(i)
                if not pte:
                    continue
                vaddr = base + i * PAGE_SIZE
                if pte_present(pte) or (pte & int(PteFlags.SPECIAL)):
                    pages[vaddr] = _digest(
                        mm.frames.read(pte_frame(pte), 0, PAGE_SIZE)
                    )
                elif pte & int(PteFlags.SWAP):
                    slot = pte_frame(pte)
                    pages[vaddr] = _digest(mm.frames.swap.load(slot))
        return cls(pages, huge, source=mm.name)

    @staticmethod
    def _iter_pmd_slots(mm):
        pgd = mm.page_table.pgd
        for pgd_i, pud in pgd.present_slots():
            for pud_i, pmd in pud.present_slots():
                for pmd_i, child in pmd.present_slots():
                    base = (
                        (pgd_i * ENTRIES_PER_TABLE + pud_i)
                        * ENTRIES_PER_TABLE
                        + pmd_i
                    ) * PTE_TABLE_SPAN
                    yield base, child

    # -- verification ----------------------------------------------------

    def verify(
        self, child_mm, pending_parent=None
    ) -> list[SnapshotMismatch]:
        """Diff a child's materialized snapshot against the fingerprint.

        While an async-fork session is still copying, pass the parent's
        address space as ``pending_parent``: a page the child lacks is
        then acceptable iff the parent's covering PMD slot still carries
        the not-yet-copied marker *and* the parent's current content
        still matches the fingerprint (any parent write would have
        forced a proactive synchronization first, §4.3).
        """
        with hooks.suppressed():
            return self._verify(child_mm, pending_parent)

    def _verify(
        self, child_mm, pending_parent=None
    ) -> list[SnapshotMismatch]:
        child = SnapshotOracle.capture(child_mm)
        mismatches: list[SnapshotMismatch] = []

        for vaddr, digest in sorted(self.pages.items()):
            got = child.pages.get(vaddr)
            if got == digest:
                continue
            if got is not None:
                mismatches.append(
                    SnapshotMismatch(
                        "content-mismatch",
                        vaddr,
                        "child page content differs from the fork-time "
                        "fingerprint",
                    )
                )
                continue
            if digest == _ZERO_PAGE_DIGEST:
                continue  # an absent page reads as zeros — consistent
            if pending_parent is not None and self._still_pending(
                pending_parent, vaddr, digest
            ):
                continue
            mismatches.append(
                SnapshotMismatch(
                    "missing-page",
                    vaddr,
                    "fingerprinted page is absent from the child "
                    "snapshot",
                )
            )

        for vaddr, got in sorted(child.pages.items()):
            if vaddr not in self.pages and got != _ZERO_PAGE_DIGEST:
                mismatches.append(
                    SnapshotMismatch(
                        "extra-page",
                        vaddr,
                        "child snapshot contains a page the parent did "
                        "not have at fork time",
                    )
                )

        for base, digest in sorted(self.huge.items()):
            got = child.huge.get(base)
            if got == digest:
                continue
            if got is None and digest == _ZERO_HUGE_DIGEST:
                continue
            mismatches.append(
                SnapshotMismatch(
                    "content-mismatch" if got is not None else "missing-page",
                    base,
                    "huge-page snapshot diverged from the fork-time "
                    "fingerprint",
                )
            )
        for base, got in sorted(child.huge.items()):
            if base not in self.huge and got != _ZERO_HUGE_DIGEST:
                mismatches.append(
                    SnapshotMismatch(
                        "extra-page",
                        base,
                        "child snapshot maps a huge page the parent did "
                        "not have at fork time",
                    )
                )
        return mismatches

    def _still_pending(self, parent_mm, vaddr: int, digest: bytes) -> bool:
        """Not yet copied: parent slot marked and content unmodified."""
        found = parent_mm.page_table.walk_pmd(vaddr)
        if found is None:
            return False
        pmd, idx = found
        if not pmd.is_write_protected(idx):
            return False
        pte = parent_mm.page_table.get_pte(vaddr)
        if not pte_present(pte):
            return False
        current = _digest(parent_mm.frames.read(pte_frame(pte), 0, PAGE_SIZE))
        return current == digest

    def verify_observed(self, child_mm) -> list[SnapshotMismatch]:
        """Diff what the child actually *reads* against the fingerprint.

        Reads go through ``read_memory`` and therefore the child's TLB —
        a stale translation (Table 1) produces an observed mismatch even
        though :meth:`verify` finds the page tables consistent.
        """
        mismatches: list[SnapshotMismatch] = []
        for vaddr, digest in sorted(self.pages.items()):
            observed = _digest(child_mm.read_memory(vaddr, PAGE_SIZE))
            if observed != digest:
                mismatches.append(
                    SnapshotMismatch(
                        "observed-content-mismatch",
                        vaddr,
                        "the child observes different bytes than the "
                        "parent had at fork time",
                    )
                )
        for base, digest in sorted(self.huge.items()):
            observed = _digest(child_mm.read_memory(base, HUGE_PAGE_SIZE))
            if observed != digest:
                mismatches.append(
                    SnapshotMismatch(
                        "observed-content-mismatch",
                        base,
                        "the child observes different huge-page bytes "
                        "than the parent had at fork time",
                    )
                )
        return mismatches

    def assert_consistent(
        self, child_mm, pending_parent=None, observed: bool = False
    ) -> None:
        """Raise :class:`SnapshotConsistencyError` on any divergence."""
        if observed:
            mismatches = self.verify_observed(child_mm)
        else:
            mismatches = self.verify(child_mm, pending_parent)
        if mismatches:
            lines = "\n".join(f"  - {m}" for m in mismatches)
            raise SnapshotConsistencyError(
                f"snapshot of {self.source!r} diverged in "
                f"{len(mismatches)} place(s):\n{lines}",
                mismatches,
            )
