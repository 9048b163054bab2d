"""Leaf (PTE) tables: 512 entries backed by a numpy array.

One PTE table covers 2 MiB of virtual address space and is itself stored in
a physical frame, whose :class:`~repro.mem.page_struct.PageStruct` carries
the ``trylock_page()`` lock used by Async-fork and the share counter used by
ODF.  The array is materialized lazily so that sparse address spaces stay
cheap.

Hot operations are whole-table numpy ops (DESIGN.md §10): the present and
referencing index sets are computed vectorized and *cached*, invalidated
only when an entry's membership actually changes (flag-only updates such
as the ACCESSED/DIRTY traffic of a fault storm keep the cache).  A flags
change never moves an entry in or out of the present/referencing sets
unless it touches the PRESENT/SPECIAL bits, which :meth:`set` detects on
the raw words.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import hooks
from repro.mem.flags import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_PRESENT,
    PTE_RW,
    PTE_SPECIAL,
)
from repro.mem.page_struct import PageStruct
from repro.units import ENTRIES_PER_TABLE, PAGE_SHIFT

_PRESENT = np.uint64(PTE_PRESENT)
_RW = np.uint64(PTE_RW)
_NOT_RW = np.uint64(~PTE_RW & 0xFFFF_FFFF_FFFF_FFFF)
_ACCESSED = np.uint64(PTE_ACCESSED)
_REFERENCING = np.uint64(PTE_PRESENT | PTE_SPECIAL)
#: Bits whose change moves an entry in/out of the cached index sets.
_MEMBERSHIP_BITS = PTE_PRESENT | PTE_SPECIAL
_PAGE_SHIFT = np.uint64(PAGE_SHIFT)
#: Flag updates touching only these bits are atomic RMWs to the race
#: detector (the hardware walker's ACCESSED/DIRTY maintenance).
_AD_BITS = PTE_ACCESSED | PTE_DIRTY


class PteTable:
    """A 512-entry leaf table of the radix page table."""

    __slots__ = (
        "page",
        "_entries",
        "present_count",
        "_present_idx",
        "_ref_idx",
        "scan_count",
    )

    def __init__(self, page: PageStruct) -> None:
        #: ``struct page`` of the frame holding this table.
        self.page = page
        self._entries: np.ndarray | None = None
        #: Number of present entries, kept incrementally for cheap scans.
        self.present_count = 0
        #: Cached ``np.nonzero`` results; ``None`` = must rescan.
        self._present_idx: np.ndarray | None = None
        self._ref_idx: np.ndarray | None = None
        #: Full-array scans performed (regression-tested: a fault storm
        #: must not rescan unchanged tables, see ISSUE 4 satellite 3).
        self.scan_count = 0

    # -- entry access ----------------------------------------------------

    def _materialize(self) -> np.ndarray:
        if self._entries is None:
            self._entries = np.zeros(ENTRIES_PER_TABLE, dtype=np.uint64)
        return self._entries

    def _invalidate(self) -> None:
        self._present_idx = None
        self._ref_idx = None

    def get(self, index: int) -> int:
        """Raw PTE value at ``index`` (0 when never set)."""
        if self._entries is None:
            return 0
        return int(self._entries[index])

    def set(self, index: int, value: int) -> None:
        """Store a raw PTE value, maintaining the present counter."""
        if hooks.ACCESS_HOOKS:
            hooks.notify_access("write", "pte", self.page.frame)
        self._store(index, value)

    def _store(self, index: int, value: int) -> None:
        entries = self._materialize()
        old = int(entries[index])
        value = int(value)
        entries[index] = value
        # PRESENT is bit 0, so the masked words are the 0/1 membership.
        self.present_count += (value & PTE_PRESENT) - (old & PTE_PRESENT)
        if (old ^ value) & _MEMBERSHIP_BITS:
            self._invalidate()

    def clear(self, index: int) -> int:
        """Clear an entry to "none present"; return the old value."""
        old = self.get(index)
        if old:
            self.set(index, 0)
        return old

    def add_flags(self, index: int, flags: int) -> None:
        """Set flag bits on one entry."""
        flags = int(flags)
        if hooks.ACCESS_HOOKS:
            op = "atomic" if not (flags & ~_AD_BITS) else "write"
            hooks.notify_access(op, "pte", self.page.frame)
        self._store(index, self.get(index) | flags)

    def remove_flags(self, index: int, flags: int) -> None:
        """Clear flag bits on one entry."""
        flags = int(flags)
        if hooks.ACCESS_HOOKS:
            op = "atomic" if not (flags & ~_AD_BITS) else "write"
            hooks.notify_access(op, "pte", self.page.frame)
        self._store(index, self.get(index) & ~flags)

    def mark_accessed(self, idx: np.ndarray) -> None:
        """Set ACCESSED on the (present, distinct) entries at ``idx``.

        The batched arm of ``add_flags(i, ACCESSED)``: one vectorized
        ``|=`` for a run of TLB misses.  A flag-only update, so the
        present counter and the cached index sets stay valid.
        """
        if not len(idx):
            return
        if hooks.ACCESS_HOOKS:
            hooks.notify_access("atomic", "pte", self.page.frame)
        self._entries[idx] |= _ACCESSED

    def entries(self) -> np.ndarray:
        """Read-only view of the raw entries (zeros if untouched).

        Callers must not write through the returned array — mutations
        bypass the present counter and the cached index sets.
        """
        if self._entries is None:
            return np.zeros(ENTRIES_PER_TABLE, dtype=np.uint64)
        return self._entries

    # -- index sets (cached) ----------------------------------------------

    def present_array(self) -> np.ndarray:
        """Indices of present entries as a cached numpy array."""
        if self._present_idx is None:
            if self._entries is None or self.present_count == 0:
                self._present_idx = np.empty(0, dtype=np.intp)
            else:
                self.scan_count += 1
                self._present_idx = np.nonzero(
                    self._entries & _PRESENT
                )[0]
        return self._present_idx

    def referencing_array(self) -> np.ndarray:
        """Indices of frame-referencing entries as a cached numpy array."""
        if self._ref_idx is None:
            if self._entries is None:
                self._ref_idx = np.empty(0, dtype=np.intp)
            else:
                self.scan_count += 1
                self._ref_idx = np.nonzero(
                    self._entries & _REFERENCING
                )[0]
        return self._ref_idx

    def present_indices(self) -> list[int]:
        """Indices of present entries (plain ints)."""
        return self.present_array().tolist()

    def referencing_indices(self) -> list[int]:
        """Indices of entries that hold a frame reference.

        Besides present entries this includes non-present entries that
        still own their frame — NUMA PROT_NONE hints and migration
        entries (PteFlags.SPECIAL) — which reclaim and teardown must
        release like any other mapping.
        """
        return self.referencing_array().tolist()

    def referencing_frames_array(self) -> np.ndarray:
        """Frame numbers (non-zero) referenced here, as a numpy array.

        The ``intp`` dtype makes the result directly usable as an index
        into the allocator's map-count array (the bulk get/put arm).
        """
        idx = self.referencing_array()
        if not len(idx):
            return np.empty(0, dtype=np.intp)
        frames = (self._entries[idx] >> _PAGE_SHIFT).astype(np.intp)
        return frames[frames != 0]

    def referencing_frames(self) -> list[int]:
        """Frame numbers (non-zero) referenced by this table's entries."""
        return self.referencing_frames_array().tolist()

    # -- bulk operations used by the fork engines --------------------------

    def write_protect_all(self) -> int:
        """Clear the RW bit on every present entry; return how many."""
        if self._entries is None or self.present_count == 0:
            return 0
        idx = self.present_array()
        values = self._entries[idx]
        touched = int(np.count_nonzero(values & _RW))
        if touched:
            if hooks.ACCESS_HOOKS:
                hooks.notify_access("write", "pte", self.page.frame)
            self._entries[idx] = values & _NOT_RW
        return touched

    def write_protect_slice(self, lo: int, hi: int) -> int:
        """Clear RW on present entries with index in [lo, hi).

        The boundary-table arm of ``write_protect_range``: the same
        CoW protection downgrade as :meth:`write_protect_all`, clipped
        so a partial ``mprotect`` does not spill over.
        """
        if self._entries is None or self.present_count == 0:
            return 0
        window = self._entries[lo:hi]
        mask = (window & _PRESENT) != 0
        touched = int(np.count_nonzero(window[mask] & _RW))
        if touched:
            if hooks.ACCESS_HOOKS:
                hooks.notify_access("write", "pte", self.page.frame)
            window[mask] &= _NOT_RW
        return touched

    def clear_indices(self, idx: np.ndarray) -> None:
        """Zero the entries at ``idx`` (the bulk zap arm).

        Equivalent to ``clear(i)`` per index; the present counter drops
        by however many of the cleared entries were present.
        """
        if self._entries is None or not len(idx):
            return
        if hooks.ACCESS_HOOKS:
            hooks.notify_access("write", "pte", self.page.frame)
        values = self._entries[idx]
        self.present_count -= int(np.count_nonzero(values & _PRESENT))
        self._entries[idx] = 0
        self._invalidate()

    def clear_flags_present(self, flags: int) -> None:
        """Remove ``flags`` from every present entry (WSS bit aging)."""
        if self._entries is None or self.present_count == 0:
            return
        if hooks.ACCESS_HOOKS:
            op = "atomic" if not (int(flags) & ~_AD_BITS) else "write"
            hooks.notify_access(op, "pte", self.page.frame)
        keep = np.uint64(~int(flags) & 0xFFFF_FFFF_FFFF_FFFF)
        idx = self.present_array()
        self._entries[idx] &= keep
        if int(flags) & _MEMBERSHIP_BITS:  # pragma: no cover - not used
            self._invalidate()

    def copy_entries_from(self, other: "PteTable") -> None:
        """Replace this table's entries with a copy of ``other``'s.

        ``other``'s cached index sets stay valid for the copy (same
        words, same membership), so they are shared rather than
        rescanned — the arrays are read-only results of ``nonzero``.
        """
        if hooks.ACCESS_HOOKS:
            hooks.notify_access("read", "pte", other.page.frame)
            hooks.notify_access("write", "pte", self.page.frame)
        if other._entries is None:
            self._invalidate()
            self._entries = None
            self.present_count = 0
            return
        self._entries = other._entries.copy()
        self.present_count = other.present_count
        self._present_idx = other._present_idx
        self._ref_idx = other._ref_idx

    def __len__(self) -> int:
        return ENTRIES_PER_TABLE
