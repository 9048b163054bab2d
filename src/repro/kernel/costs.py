"""The calibrated cost model.

Every constant is anchored to a measurement the paper itself reports; the
derivations are spelled out in DESIGN.md §4.  The timing tier multiplies
these by entry counts; the functional tier uses them when it advances the
shared :class:`~repro.kernel.clock.Clock` during fork operations.

Anchors:

* §3.1 — copying one PGD/PUD/PMD entry (allocate + initialize a table
  page) takes ~500 ns; the 2^12 PMDs of an 8 GiB instance take ~2 ms and
  its 2^21 PTEs take ~70 ms (⇒ ~33 ns/PTE).
* Figure 3 — default fork: <10 ms at 1 GiB, >600 ms at 64 GiB, page-table
  copy ≥97 % of the call.
* Figure 22 — the parent returns from Async-fork in 0.61 ms and from ODF
  in 1.1 ms on a 64 GiB instance.
* Figure 11 — parent interruptions fall into bcc's [16,31] µs and
  [32,63] µs buckets (one table CoW/sync ≈ 2 µs trap + 512·33 ns).
* §6.2 — persisting 8 GiB takes ~40 s (⇒ ~200 MiB/s effective).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.units import ENTRIES_PER_TABLE, MIB, SEC


@dataclass(frozen=True)
class CostModel:
    """Nanosecond costs of the primitive operations."""

    #: Copy one PGD/PUD/PMD entry: allocate + zero the child table page.
    dir_entry_copy_ns: int = 500
    #: Copy one PTE (entry move + mapcount + write-protect).
    pte_entry_copy_ns: int = 33
    #: Write-protect one PMD entry (Async-fork's parent-side marking).
    pmd_wp_set_ns: int = 18
    #: Share one PTE table in ODF (refcount init + PMD entry + WP).
    odf_share_pmd_ns: int = 30
    #: Fixed fork overhead: dup task, files, signals, VMAs.
    fork_fixed_ns: int = 50_000
    #: Per-VMA metadata copy.
    vma_copy_ns: int = 1_500
    #: Page-fault trap + locking overhead (trap, mmap_sem, PTL, TLB
    #: shootdown bookkeeping).
    fault_overhead_ns: int = 3_500
    #: Copy one 4 KiB data page during CoW.
    page_copy_ns: int = 1_000
    #: Effective persist bandwidth (bytes/second).
    persist_bandwidth: int = 200 * MIB
    #: Child-thread check of an already-copied PMD slot.
    pmd_skip_ns: int = 60
    #: Fault in a 2 MiB huge page (zeroing/compaction; §3.2 cites the
    #: regular:huge fault ratio at roughly 3.6 us : 378 us).
    huge_fault_ns: int = 378_000
    #: CoW-copy a whole huge page after a fork (2 MiB memcpy + fault).
    huge_cow_ns: int = 380_000

    # -- derived quantities -------------------------------------------------

    def pte_table_copy_ns(self) -> int:
        """Copy one full 512-entry PTE table plus its PMD entry."""
        return (
            self.dir_entry_copy_ns
            + ENTRIES_PER_TABLE * self.pte_entry_copy_ns
        )

    def fork_call_terms(
        self, method: str, counts: dict[str, int]
    ) -> list[tuple[str, int, dict]]:
        """The parent's fork call as consecutive ``(phase, ns, attrs)`` terms.

        ``method`` is ``'default'``, ``'odf'``, ``'async'`` or ``'none'``
        (no fork: no terms).  ``counts`` maps level name -> present
        entries, as produced by
        :meth:`repro.mem.page_table.PageTable.level_counts`.  Each method
        pays the fixed overhead, then one per-entry constant per level
        it touches inside the call (Figures 3 and 22).
        """
        if method == "none":
            return []
        terms = [("fork.fixed", self.fork_fixed_ns, {"method": method})]
        for level, field, mode in _FORK_CALL_LEVELS[method]:
            attrs = {"level": level, "entries": counts[level]}
            if mode is not None:
                attrs["mode"] = mode
            terms.append(
                (f"fork.{level}_copy", counts[level] * getattr(self, field),
                 attrs)
            )
        return terms

    def fork_call_ns(self, method: str, counts: dict[str, int]) -> int:
        """Parent-side duration of one ``method`` fork call."""
        return sum(ns for _, ns, _ in self.fork_call_terms(method, counts))

    def page_table_copy_ns(self, counts: dict[str, int]) -> int:
        """The page-table-copy share of the default fork (Fig. 3)."""
        return self.fork_call_ns("default", counts) - self.fork_fixed_ns

    def table_fault_ns(self) -> int:
        """One parent interruption: ODF table CoW or proactive sync."""
        return self.fault_overhead_ns + self.pte_table_copy_ns()

    def data_cow_fault_ns(self) -> int:
        """One data-page CoW fault (all fork flavours pay these)."""
        return self.fault_overhead_ns + self.page_copy_ns

    def persist_ns(self, nbytes: int, speedup: float = 1.0) -> int:
        """Time for the child to serialize ``nbytes`` to disk."""
        bandwidth = self.persist_bandwidth * speedup
        return int(nbytes / bandwidth * SEC)

    def child_copy_terms(
        self, counts: dict[str, int]
    ) -> list[tuple[str, int, dict]]:
        """Async-fork's serial child copy as ``(phase, ns, attrs)`` terms:
        the PMD entries, then the PTE tables below them."""
        return [
            (f"child.{level}_copy", counts[level] * ns,
             {"level": level, "entries": counts[level]})
            for level, ns in (("pmd", self.dir_entry_copy_ns),
                              ("pte", self.pte_entry_copy_ns))
        ]

    def child_copy_ns(self, counts: dict[str, int], threads: int = 1) -> int:
        """Child-side PMD/PTE copy duration with ``threads`` workers.

        VMAs are independent so kernel threads get near-linear speedup
        (§5.1); the model divides the serial work accordingly.
        """
        serial = sum(ns for _, ns, _ in self.child_copy_terms(counts))
        return int(serial / max(1, threads))

    def scaled(self, **changes) -> "CostModel":
        """A copy of the model with some constants replaced."""
        return replace(self, **changes)


#: Per fork method: ``(level, per-entry cost field, mode)`` for every
#: page-table level the parent handles inside the call.  The default
#: fork copies all four levels; ODF shares and Async-fork write-protects
#: the PMD entries instead of copying the PTE tables below them.
_FORK_CALL_LEVELS = {
    "default": (
        ("pgd", "dir_entry_copy_ns", None),
        ("pud", "dir_entry_copy_ns", None),
        ("pmd", "dir_entry_copy_ns", None),
        ("pte", "pte_entry_copy_ns", None),
    ),
    "odf": (
        ("pgd", "dir_entry_copy_ns", None),
        ("pud", "dir_entry_copy_ns", None),
        ("pmd", "odf_share_pmd_ns", "share"),
    ),
    "async": (
        ("pgd", "dir_entry_copy_ns", None),
        ("pud", "dir_entry_copy_ns", None),
        ("pmd", "pmd_wp_set_ns", "write-protect"),
    ),
}

DEFAULT_COSTS = CostModel()
