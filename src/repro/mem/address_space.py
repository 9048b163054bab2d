"""The simulated ``mm_struct``: VMAs + page table + fault handling.

This module glues the substrate together and, crucially, fires the
*checkpoints* of Table 3 before every operation that may modify VMAs or
PTEs.  Fork sessions (Async-fork's proactive synchronization, ODF's
table-CoW) subscribe to these checkpoints; the address space itself stays
agnostic about which fork engine, if any, is active.

The write-protect bit of a PMD entry is treated as a software marker, as in
the paper: a write access under a write-protected PMD faults, the fault
fires :data:`~repro.mem.checkpoints.HANDLE_MM_FAULT`, subscribers repair
the page table (copy or unshare the leaf table), and the fault path then
resolves the data-page CoW as usual.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis import hooks
from repro.errors import InvalidAddressError, ProtectionFaultError
from repro.mem import checkpoints as cp
from repro.mem.checkpoints import CheckpointEvent
from repro.mem.directory import require_pte_table
from repro.mem.flags import (
    FLAGS_MASK,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_PRESENT,
    PTE_RW,
    PTE_SPECIAL,
    PTE_SWAP,
    make_pte,
    pte_frame,
)
from repro.mem.frames import FrameAllocator
from repro.mem.hugepage import HUGE_PAGE_SIZE, HugePage, huge_base
from repro.mem.page_table import PageTable
from repro.mem.pte_table import PteTable
from repro.mem.tlb import Tlb
from repro.obs import tracer as obs
from repro.obs.registry import CounterDict, MetricsRegistry
from repro.mem.vma import Vma, VmaList, VmaProt, aligned_range
from repro.units import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_TABLE_SPAN,
    page_align_down,
    pte_index,
)

#: Default base of the anonymous mapping arena.
MMAP_BASE = 0x5555_0000_0000
#: Default top of the (downward-growing) stack arena.
STACK_TOP = 0x7FFF_FF00_0000

ZERO_FRAME = 0

#: ``VmaProt`` bits as plain ints, tested against ``Vma.prot_bits``.
_PROT_READ = int(VmaProt.READ)
_PROT_WRITE = int(VmaProt.WRITE)
_PAGE_MASK = ~(PAGE_SIZE - 1)
#: ``handle_fault``'s "no slot given" default (``None`` is a real
#: ``walk_pmd`` result: the path is absent).
_WALK = object()

_ACCESSED = np.uint64(PTE_ACCESSED)
_PRESENT = np.uint64(PTE_PRESENT)
_PAGE_SHIFT = np.uint64(PAGE_SHIFT)
#: Shift from a vaddr to its PTE table's number (2 MiB spans).
_TABLE_SHIFT = PTE_TABLE_SPAN.bit_length() - 1

CheckpointSubscriber = Callable[[CheckpointEvent], None]


def table_run_bounds(pages: Sequence[int]) -> list[int]:
    """Bounds ``[0, ..., len(pages)]`` cutting ``pages`` into table runs.

    A run is a maximal stretch of consecutive list entries that fall in
    one PTE table (2 MiB span); list order is kept, never sorted.
    """
    tables = np.asarray(pages, dtype=np.int64) >> _TABLE_SHIFT
    cuts = np.flatnonzero(tables[1:] != tables[:-1]) + 1
    return [0, *cuts.tolist(), len(pages)]


def _user_path(method):
    """Attribute a syscall entry point to the ``('user', mm)`` context.

    The race detector needs every access tagged with the logical actor
    performing it; these methods are the process's own user path (page
    faults, memory access, VMA syscalls).  Checkpoint subscribers fired
    inside run in the same context — proactive synchronization *is*
    work done by the parent's syscall, per §4.2.  When no tracker is
    installed the wrapper costs one truthiness check.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        if not (hooks.ACCESS_HOOKS or hooks.EDGE_HOOKS):
            return method(self, *args, **kwargs)
        hooks.push_context(("user", self.name))
        try:
            return method(self, *args, **kwargs)
        finally:
            hooks.pop_context()

    return wrapper


class AddressSpace:
    """One process's memory map."""

    def __init__(
        self,
        frames: FrameAllocator,
        name: str = "mm",
        tlb: Optional[Tlb] = None,
    ) -> None:
        self.frames = frames
        self.name = name
        self.vmas = VmaList()
        self.page_table = PageTable(frames)
        #: Per-process TLB (optional; the leakage demos provide one).
        self.tlb = tlb if tlb is not None else Tlb(owner=name)
        self.checkpoint_subscribers: list[CheckpointSubscriber] = []
        #: Resident set size in pages.
        self.rss = 0
        self._mmap_cursor = MMAP_BASE
        #: Unified metrics; :attr:`stats` is a dict view over the
        #: ``mm.*`` counters so historical call sites keep working.
        self.metrics = MetricsRegistry()
        self.stats = CounterDict(
            self.metrics,
            {
                "faults": "mm.faults",
                "cow_copies": "mm.cow_copies",
                "zapped": "mm.zapped",
            },
        )
        self._faults = self.metrics.counter("mm.faults")
        self._cow_copies = self.metrics.counter("mm.cow_copies")
        if hooks.MM_HOOKS:
            hooks.notify_mm_created(self)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def fire(
        self,
        name: str,
        start: int,
        end: int,
        vma: Optional[Vma] = None,
        write: bool = False,
        **detail,
    ) -> None:
        """Fire a checkpoint *before* the corresponding modification.

        With no subscriber nothing is built.
        """
        if not self.checkpoint_subscribers:
            return
        event = CheckpointEvent(
            name=name,
            mm=self,
            start=start,
            end=end,
            vma=vma,
            write=write,
            detail=detail,
        )
        for subscriber in list(self.checkpoint_subscribers):
            subscriber(event)

    def subscribe(self, fn: CheckpointSubscriber) -> None:
        """Register a checkpoint subscriber (a fork session)."""
        self.checkpoint_subscribers.append(fn)

    def unsubscribe(self, fn: CheckpointSubscriber) -> None:
        """Remove a checkpoint subscriber."""
        self.checkpoint_subscribers.remove(fn)

    # ------------------------------------------------------------------
    # VMA syscalls
    # ------------------------------------------------------------------

    def mmap(
        self,
        length: int,
        prot: VmaProt = VmaProt.READ | VmaProt.WRITE,
        tag: str = "anon",
        fixed_at: Optional[int] = None,
    ) -> Vma:
        """Create an anonymous mapping; returns the (possibly merged) VMA."""
        if length <= 0:
            raise ValueError("mmap length must be positive")
        if fixed_at is not None:
            lo, hi = aligned_range(fixed_at, length)
        else:
            lo, hi = aligned_range(self._mmap_cursor, length)
            self._mmap_cursor = hi
        vma = Vma(lo, hi, prot, tag)
        self.fire(cp.VMA_MERGE, lo, hi, vma=vma)
        return self.vmas.insert(vma)

    def mmap_huge(
        self,
        length: int,
        prot: VmaProt = VmaProt.READ | VmaProt.WRITE,
    ) -> Vma:
        """Create a transparent-huge-page mapping (2 MiB granularity).

        The region faults in whole huge pages: cheap to fork (one PMD
        entry instead of 512 PTEs) but with the §3.2 downsides — 2 MiB
        fault/CoW granularity and all-or-nothing residency — and
        incompatible with Async-fork's PMD R/W-bit reuse.
        """
        if length <= 0 or length % HUGE_PAGE_SIZE:
            raise ValueError("huge mappings are 2 MiB-granular")
        # Align the arena cursor up to a huge-page boundary.
        base = (
            (self._mmap_cursor + HUGE_PAGE_SIZE - 1)
            // HUGE_PAGE_SIZE
            * HUGE_PAGE_SIZE
        )
        self._mmap_cursor = base + length
        vma = Vma(base, base + length, prot, tag="thp")
        self.fire(cp.VMA_MERGE, base, base + length, vma=vma)
        return self.vmas.insert(vma, merge=False)

    @_user_path
    def munmap(self, start: int, length: int) -> int:
        """Remove mappings over [start, start+length); returns pages zapped.

        Fires :data:`~repro.mem.checkpoints.DETACH_VMAS` before any PTE is
        touched — this is the canonical VMA-wide modification of §4.3 (the
        "user deletes lots of KV pairs" example).
        """
        lo, hi = aligned_range(start, length)
        affected = self.vmas.overlapping(lo, hi)
        if not affected:
            return 0
        self.fire(cp.DETACH_VMAS, lo, hi)
        zapped = 0
        for vma in affected:
            vma = self._trim_to_range(vma, lo, hi)
            zapped += self._zap(vma.start, vma.end, checkpoint=None)
            self.vmas.remove(vma)
        return zapped

    @_user_path
    def mprotect(self, start: int, length: int, prot: VmaProt) -> None:
        """Change protection over a range (do_mprotect_pkey)."""
        lo, hi = aligned_range(start, length)
        affected = self.vmas.overlapping(lo, hi)
        if not affected:
            raise InvalidAddressError(f"mprotect of unmapped range {lo:#x}")
        self.fire(cp.DO_MPROTECT, lo, hi)
        for vma in affected:
            vma = self._trim_to_range(vma, lo, hi)
            vma.prot = prot
            if not prot & VmaProt.WRITE:
                self.page_table.write_protect_range(vma.start, vma.end)
                self._flush_tlb_range(vma.start, vma.end)

    @_user_path
    def madvise_dontneed(self, start: int, length: int) -> int:
        """MADV_DONTNEED: drop pages but keep the VMA (madvise_vma)."""
        lo, hi = aligned_range(start, length)
        if not self.vmas.overlapping(lo, hi):
            return 0
        self.fire(cp.MADVISE_VMA, lo, hi)
        return self._zap(lo, hi, checkpoint=None)

    @_user_path
    def mremap(self, vma: Vma, new_length: int) -> Vma:
        """Resize a VMA in place (vma_to_resize)."""
        new_end = aligned_range(vma.start, new_length)[1]
        self.fire(cp.VMA_TO_RESIZE, vma.start, max(vma.end, new_end), vma=vma)
        if new_end < vma.end:
            self._zap(new_end, vma.end, checkpoint=None)
            vma.end = new_end
        elif new_end > vma.end:
            blockers = self.vmas.overlapping(vma.end, new_end)
            if blockers:
                raise InvalidAddressError("cannot grow into mapped range")
            vma.end = new_end
        return vma

    @_user_path
    def mlock(self, start: int, length: int) -> None:
        """Lock a range (mlock_fixup checkpoint; no PTE change modelled)."""
        lo, hi = aligned_range(start, length)
        self.fire(cp.MLOCK_FIXUP, lo, hi)

    @_user_path
    def expand_stack(self, vma: Vma, new_start: int) -> Vma:
        """Grow a stack VMA downwards (expand_downwards)."""
        new_start = page_align_down(new_start)
        if new_start >= vma.start:
            return vma
        self.fire(cp.EXPAND_DOWNWARDS, new_start, vma.start, vma=vma)
        vma.start = new_start
        return vma

    def _trim_to_range(self, vma: Vma, lo: int, hi: int) -> Vma:
        """Split ``vma`` so the returned VMA lies entirely in [lo, hi)."""
        if vma.start < lo:
            self.fire(cp.SPLIT_VMA, vma.start, vma.end, vma=vma)
            _, vma = self.vmas.split(vma, lo)
        if vma.end > hi:
            self.fire(cp.SPLIT_VMA, vma.start, vma.end, vma=vma)
            vma, _ = self.vmas.split(vma, hi)
        return vma

    # ------------------------------------------------------------------
    # PTE zapping (shared by munmap / madvise / OOM reclaim)
    # ------------------------------------------------------------------

    def _zap(
        self, lo: int, hi: int, checkpoint: Optional[str]
    ) -> int:
        """Clear present PTEs in [lo, hi), dropping frame references.

        ``checkpoint`` names a PMD-wide checkpoint to fire per PMD slot
        (``zap_pmd_range`` on the OOM path) or ``None`` when a VMA-wide
        checkpoint already covered the range.
        """
        zapped = 0
        for pmd, idx, base in self.page_table.iter_pmd_slots(lo, hi):
            leaf = pmd.get(idx)
            if leaf is None:
                continue
            if checkpoint is not None:
                self.fire(
                    checkpoint, base, base + PTE_TABLE_SPAN, write=True
                )
            if isinstance(leaf, HugePage):
                if lo <= base and base + PTE_TABLE_SPAN <= hi:
                    pmd.clear(idx)
                    leaf.mapcount -= 1
                    if leaf.resident_bytes:
                        self.rss -= PTE_TABLE_SPAN // PAGE_SIZE
                    self._flush_tlb_range(base, base + PTE_TABLE_SPAN)
                    zapped += PTE_TABLE_SPAN // PAGE_SIZE
                continue
            leaf = require_pte_table(pmd.get(idx))
            span_covered = lo <= base and base + PTE_TABLE_SPAN <= hi
            ridx = leaf.referencing_array()
            if len(ridx) and not span_covered:
                vaddrs = base + ridx * PAGE_SIZE
                ridx = ridx[(vaddrs >= lo) & (vaddrs < hi)]
            if len(ridx):
                words = leaf.entries()[ridx]
                pages = (base + ridx * PAGE_SIZE).tolist()
                leaf.clear_indices(ridx)
                drop = [
                    f
                    for f in (words >> _PAGE_SHIFT).tolist()
                    if f != ZERO_FRAME
                ]
                self.frames.put_many(drop)
                self.rss -= len(drop)
                self.tlb.flush_pages(pages)
                zapped += len(pages)
            if leaf.present_count == 0 and span_covered:
                pmd.clear(idx)
                self._free_table_frame(leaf)
        self.stats["zapped"] += zapped
        if obs.ACTIVE and zapped:
            obs.emit_instant(
                "mm.zap", obs.CAT_MEM, owner=self.name, pages=zapped
            )
        return zapped

    @_user_path
    def zap_pmd_range(self, lo: int, hi: int) -> int:
        """OOM-killer style reclaim: zap with per-PMD checkpoints."""
        return self._zap(lo, hi, checkpoint=cp.ZAP_PMD_RANGE)

    def _free_table_frame(self, leaf) -> None:
        page = leaf.page
        if page.share_count > 0:
            page.share_count -= 1
            return
        if self.frames.is_allocated(page.frame) and not page.locked:
            self.frames.free(page.frame)

    def _flush_tlb_range(self, lo: int, hi: int) -> None:
        self.tlb.flush_range(lo, hi)

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------

    @_user_path
    def handle_fault(
        self,
        vaddr: int,
        write: bool,
        vma: Optional[Vma] = None,
        slot=_WALK,
    ) -> int:
        """Resolve a page fault at ``vaddr``; returns the mapped frame.

        Mirrors ``handle_mm_fault()``: fires the PMD-wide checkpoint first
        (letting an active Async-fork session proactively synchronize the
        covering PTE table, or an ODF session unshare it), then installs or
        CoW-copies the data page.

        A caller that already looked up ``vaddr``'s VMA and walked to its
        PMD slot (:meth:`PageTable.walk_pmd`) passes both, and the fault
        reuses them.  The slot is read again only when a checkpoint
        subscriber ran, since it may have replaced the leaf or cleared
        the marker.
        """
        if vma is None:
            vma = self.vmas.find(vaddr)
            if vma is None:
                raise InvalidAddressError(f"fault at unmapped {vaddr:#x}")
        if not vma.prot_bits & (_PROT_WRITE if write else _PROT_READ):
            raise ProtectionFaultError(
                f"{'write' if write else 'read'} to {vaddr:#x} "
                f"violates {vma.prot!r}"
            )
        self._faults.value += 1
        page_lo = vaddr & _PAGE_MASK
        page_table = self.page_table
        found = page_table.walk_pmd(vaddr) if slot is _WALK else slot
        pmd_wp = found is not None and found[0].is_write_protected(found[1])
        if obs.ACTIVE:
            obs.emit_instant(
                "mm.fault",
                obs.CAT_MEM,
                owner=self.name,
                write=write,
                pmd_wp=pmd_wp,
            )
        if self.checkpoint_subscribers:
            self.fire(
                cp.HANDLE_MM_FAULT,
                page_lo,
                page_lo + PAGE_SIZE,
                vma=vma,
                write=write,
                pmd_wp=pmd_wp,
            )
            found = page_table.walk_pmd(vaddr)
            pmd_wp = found is not None and found[0].is_write_protected(
                found[1]
            )
        # A subscriber may have repaired the PMD; if the software marker
        # is still set with NO session subscribed, clear it — it is only
        # a leftover marker then.  With a live session the marker stays:
        # the session may have lost the trylock race (the holder will
        # finish the copy and clear it).
        if write and pmd_wp and not self.checkpoint_subscribers:
            found[0].set_write_protected(found[1], False)

        leaf, pte = page_table.leaf_pte(found, vaddr)
        if not pte & PTE_PRESENT and pte & PTE_SWAP:
            # Swap-in: restore the page privately from the shared slot,
            # then resolve any pending CoW arm for write accesses.
            frame = self._swap_in(vaddr, pte, leaf)
            pte = leaf.get(pte_index(vaddr))
            if write and not pte & PTE_RW:
                return self._resolve_cow(vaddr, pte, found, leaf)
            return frame
        if not pte & PTE_PRESENT and pte & PTE_SPECIAL:
            # NUMA hint fault: the frame is intact, re-establish PRESENT.
            pte = self._restore_numa_hint(vaddr, pte, leaf)
        if not pte & PTE_PRESENT:
            return self._fault_in_page(vaddr, write, found)
        if write and not pte & PTE_RW:
            return self._resolve_cow(vaddr, pte, found, leaf)
        flags = PTE_ACCESSED | (PTE_DIRTY if write else 0)
        leaf.add_flags(pte_index(vaddr), flags)
        return pte >> PAGE_SHIFT

    def _swap_in(self, vaddr: int, pte: int, leaf: PteTable) -> int:
        """Fault a swapped-out page back in from the shared swap space."""
        slot = pte_frame(pte)
        contents = self.frames.swap.load(slot)
        page = self.frames.alloc("data")
        page.get()
        if contents:
            self.frames.write(page.frame, 0, contents)
        flags = (pte & FLAGS_MASK | PTE_PRESENT) & ~PTE_SWAP
        leaf.set(pte_index(vaddr), make_pte(page.frame, flags))
        self.rss += 1
        self.tlb.flush_page(vaddr)
        return page.frame

    def _restore_numa_hint(self, vaddr: int, pte: int, leaf: PteTable) -> int:
        """Undo a change_prot_numa poisoning for one PTE."""
        flags = (pte & FLAGS_MASK | PTE_PRESENT) & ~PTE_SPECIAL
        restored = make_pte(pte_frame(pte), flags)
        leaf.set(pte_index(vaddr), restored)
        return restored

    def _fault_in_page(self, vaddr: int, write: bool, found) -> int:
        """First touch of an anonymous page (``found``: its PMD slot)."""
        if not write:
            # Read faults map the shared zero page read-only.
            self.page_table.map(vaddr, ZERO_FRAME, PTE_ACCESSED, found)
            return ZERO_FRAME
        page = self.frames.alloc("data")
        page.get()
        self.page_table.map(
            vaddr, page.frame, PTE_RW | PTE_ACCESSED | PTE_DIRTY, found
        )
        self.rss += 1
        self.tlb.flush_page(vaddr)
        return page.frame

    def _resolve_cow(self, vaddr: int, pte: int, found, leaf: PteTable) -> int:
        """Break copy-on-write for a write to a write-protected page."""
        frame = pte >> PAGE_SHIFT
        index = pte_index(vaddr)
        if frame == ZERO_FRAME:
            # Upgrade the zero page to a private writable page.
            leaf.clear(index)
            return self._fault_in_page(vaddr, True, found)
        page = self.frames.page(frame)
        if page.mapcount > 1:
            new_page = self.frames.alloc("data")
            new_page.get()
            self.frames.copy_contents(frame, new_page.frame)
            page.put()
            self.page_table.map(
                vaddr, new_page.frame, PTE_RW | PTE_ACCESSED | PTE_DIRTY, found
            )
            self.tlb.flush_page(vaddr)
            self._cow_copies.value += 1
            if obs.ACTIVE:
                obs.emit_instant(
                    "mm.cow_copy", obs.CAT_MEM, owner=self.name
                )
            return new_page.frame
        # Sole owner: reuse the page in place.
        leaf.add_flags(index, PTE_RW | PTE_ACCESSED | PTE_DIRTY)
        self.tlb.flush_page(vaddr)
        return frame

    # ------------------------------------------------------------------
    # huge pages (§3.2)
    # ------------------------------------------------------------------

    def _huge_fault(self, vaddr: int, vma: Vma, write: bool) -> HugePage:
        """The huge page backing ``vaddr`` in the THP VMA ``vma``."""
        if not vma.prot_bits & (_PROT_WRITE if write else _PROT_READ):
            raise ProtectionFaultError(
                f"{'write' if write else 'read'} to huge page {vaddr:#x} "
                f"violates {vma.prot!r}"
            )
        base = huge_base(vaddr)
        found = self.page_table.walk_pmd(base, create=True)
        assert found is not None
        pmd, idx = found
        hp = pmd.get(idx)
        if hp is None:
            # First touch: fault in a whole 2 MiB page (the expensive
            # huge-page fault §3.2 quantifies).
            self._faults.value += 1
            self.fire(
                cp.HANDLE_MM_FAULT, base, base + HUGE_PAGE_SIZE,
                vma=vma, write=write, huge=True,
            )
            hp = HugePage()
            pmd.set(idx, hp)
            pmd.set_write_protected(idx, False)
            return hp
        if not isinstance(hp, HugePage):  # pragma: no cover - guarded
            raise TypeError("thp VMA slot holds a PTE table")
        if write and pmd.is_write_protected(idx):
            # Huge CoW: one small write copies the whole 2 MiB.
            self._faults.value += 1
            self.fire(
                cp.HANDLE_MM_FAULT, base, base + HUGE_PAGE_SIZE,
                vma=vma, write=True, huge=True,
            )
            if hp.mapcount > 1:
                hp.mapcount -= 1
                hp = hp.copy()
                pmd.set(idx, hp)
                self._cow_copies.value += 1
            pmd.set_write_protected(idx, False)
            self._flush_tlb_range(base, base + HUGE_PAGE_SIZE)
        return hp

    # ------------------------------------------------------------------
    # user-space access (drives faults and the TLB)
    # ------------------------------------------------------------------

    @_user_path
    def write_memory(self, vaddr: int, data: bytes) -> None:
        """Store bytes at a virtual address, faulting pages in as needed.

        Each page-sized chunk costs one VMA lookup and one walk to its
        PMD slot, which a fault reuses.  Writes walk the table, never
        the TLB.
        """
        offset = 0
        total = len(data)
        find = self.vmas.find
        while offset < total:
            here = vaddr + offset
            vma = find(here)
            if vma is not None and vma.tag == "thp":
                hp = self._huge_fault(here, vma, True)
                in_huge = here - huge_base(here)
                chunk = min(total - offset, HUGE_PAGE_SIZE - in_huge)
                newly_resident = hp.resident_bytes == 0
                hp.write(in_huge, data[offset : offset + chunk])
                if newly_resident:
                    self.rss += HUGE_PAGE_SIZE // PAGE_SIZE
                offset += chunk
                continue
            page_lo = here & _PAGE_MASK
            in_page = here - page_lo
            chunk = min(total - offset, PAGE_SIZE - in_page)
            frame = self._writable_frame(here, vma)
            self.frames.write(
                frame,
                in_page,
                data if chunk == total else data[offset : offset + chunk],
            )
            self.tlb.insert(page_lo, frame, writable=True)
            offset += chunk

    @_user_path
    def read_memory(self, vaddr: int, length: int) -> bytes:
        """Load bytes, using the TLB first — stale entries *will* be used.

        This faithful modelling of TLB semantics is what exposes the
        shared-page-table leakage of Table 1.  Each chunk looks its VMA
        up once; a fault reuses it and the walk's PMD slot.
        """
        parts: list[bytes] = []
        offset = 0
        find = self.vmas.find
        while offset < length:
            here = vaddr + offset
            vma = find(here)
            if vma is not None and vma.tag == "thp":
                hp = self._huge_fault(here, vma, False)
                in_huge = here - huge_base(here)
                chunk = min(length - offset, HUGE_PAGE_SIZE - in_huge)
                parts.append(hp.read(in_huge, chunk))
                offset += chunk
                continue
            page_lo = here & _PAGE_MASK
            in_page = here - page_lo
            chunk = min(length - offset, PAGE_SIZE - in_page)
            frame = self.tlb.lookup(page_lo)
            if frame is None:
                found = self.page_table.walk_pmd(page_lo)
                leaf, pte = self.page_table.leaf_pte(found, page_lo)
                if pte & PTE_PRESENT:
                    frame = pte >> PAGE_SHIFT
                    leaf.add_flags(pte_index(page_lo), PTE_ACCESSED)
                else:
                    frame = self.handle_fault(page_lo, False, vma, found)
                self.tlb.insert(page_lo, frame)
            parts.append(self.frames.read(frame, in_page, chunk))
            offset += chunk
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def read_pages(self, pages: Sequence[int]) -> list[bytes]:
        """Read the whole pages at page-aligned ``pages``, in list order.

        Observably the same as ``[read_memory(p, PAGE_SIZE) for p in
        pages]``: the same bytes, TLB entries and hit/miss counts, PTE
        words, faults (in the same order) and trace events.  Each run of
        consecutive pages inside one PTE table is handled together: one
        page-table walk, the run's TLB lookups, one presence mask over
        the table's words, one vectorized ``|= ACCESSED`` on the present
        misses, and only the non-present misses go through
        :meth:`handle_fault`.  Stale TLB entries are used, as by
        :meth:`read_memory`.

        Huge-page spans, runs that name a page twice, and any call made
        while access or edge hooks are installed (the race detector
        must see every per-page event) take the per-page path.
        """
        if not pages:
            return []
        vaddrs = np.asarray(pages, dtype=np.int64)
        if (vaddrs & (PAGE_SIZE - 1)).any():
            raise ValueError("read_pages takes page-aligned addresses")
        if hooks.ACCESS_HOOKS or hooks.EDGE_HOOKS:
            return [self.read_memory(page, PAGE_SIZE) for page in pages]
        pages = list(pages)
        bounds = table_run_bounds(vaddrs)
        out: list[bytes] = []
        for lo, hi in zip(bounds, bounds[1:]):
            self._read_table_run(pages[lo:hi], vaddrs[lo:hi], out)
        return out

    def _read_table_run(
        self, run: list[int], vaddrs: np.ndarray, out: list[bytes]
    ) -> None:
        """:meth:`read_pages` for one run of pages inside one PTE table.

        The run is processed in segments that end at a non-present TLB
        miss: a segment's lookups, ACCESSED updates, TLB inserts and
        reads are independent per page, so batching them is exact; the
        fault that ends a segment runs at the point the per-page walk
        would reach it, and the rest of the run is re-walked after it.
        """
        base = run[0] & ~(PTE_TABLE_SPAN - 1)
        huge = any(
            vma.tag == "thp"
            for vma in self.vmas.overlapping(base, base + PTE_TABLE_SPAN)
        )
        if huge or len(set(run)) != len(run):
            out.extend(self.read_memory(page, PAGE_SIZE) for page in run)
            return
        tlb = self.tlb
        n = len(run)
        idx = (vaddrs - base) >> PAGE_SHIFT
        cached = tlb.peek_many(run)
        hit = np.array([frame is not None for frame in cached], dtype=bool)
        pos = 0
        while pos < n:
            leaf = self.page_table.walk_pte_table(base)
            miss = pos + np.flatnonzero(~hit[pos:])
            words = (
                leaf.entries()[idx[miss]]
                if leaf is not None
                else np.zeros(len(miss), dtype=np.uint64)
            )
            absent = np.flatnonzero((words & _PRESENT) == 0)
            taken = int(absent[0]) if len(absent) else len(miss)
            stop = int(miss[taken]) if len(absent) else n
            if taken:
                present = miss[:taken]
                leaf.mark_accessed(idx[present])
                frames = (words[:taken] >> _PAGE_SHIFT).tolist()
                if taken == stop - pos:  # every lookup here missed
                    tlb.insert_many(run[pos:stop], frames)
                    cached[pos:stop] = frames
                else:
                    positions = present.tolist()
                    tlb.insert_many([run[i] for i in positions], frames)
                    for i, frame in zip(positions, frames):
                        cached[i] = frame
            tlb.count_lookups(stop - pos - taken, taken)
            out.extend(self.frames.read_frames(cached[pos:stop]))
            if stop == n:
                return
            page = run[stop]
            tlb.count_lookups(0, 1)
            flushes, size = tlb.flushes, len(tlb)
            frame = self.handle_fault(page, write=False)
            flushed = tlb.flushes != flushes or len(tlb) != size
            tlb.insert(page, frame)
            out.append(self.frames.read(frame))
            pos = stop + 1
            if flushed and pos < n:
                # The fault changed the TLB: look the rest up again, as
                # the per-page walk would.
                cached[pos:] = tlb.peek_many(run[pos:])
                hit[pos:] = [frame is not None for frame in cached[pos:]]

    def _writable_frame(self, vaddr: int, vma: Optional[Vma] = None) -> int:
        """Frame for a write access, resolving faults if required.

        ``vma`` is ``vaddr``'s VMA when the caller has looked it up; the
        fault reuses it and this walk's PMD slot.
        """
        found = self.page_table.walk_pmd(vaddr)
        leaf, pte = self.page_table.leaf_pte(found, vaddr)
        if (
            pte & PTE_PRESENT
            and pte & PTE_RW
            and not found[0].is_write_protected(found[1])
        ):
            leaf.add_flags(pte_index(vaddr), PTE_ACCESSED | PTE_DIRTY)
            return pte >> PAGE_SHIFT
        return self.handle_fault(vaddr, True, vma, found)

    @_user_path
    def follow_page(self, vaddr: int) -> int:
        """get_user_pages-style pinning access (follow_page_pte)."""
        page_lo = page_align_down(vaddr)
        self.fire(
            cp.FOLLOW_PAGE_PTE, page_lo, page_lo + PAGE_SIZE, write=True
        )
        return self._writable_frame(vaddr)

    # ------------------------------------------------------------------
    # working-set estimation (Appendix A)
    # ------------------------------------------------------------------

    def estimate_wss(self) -> int:
        """Count accessed PTEs — the kernel's WSS estimator input."""
        count = 0
        for vma in self.vmas:
            for pmd, idx, base in self.page_table.iter_pmd_slots(
                vma.start, vma.end
            ):
                leaf = pmd.get(idx)
                if leaf is None or isinstance(leaf, HugePage):
                    continue
                leaf = require_pte_table(leaf)
                pidx = leaf.present_array()
                if not len(pidx):
                    continue
                in_span = (
                    vma.start <= base
                    and base + PTE_TABLE_SPAN <= vma.end
                )
                if not in_span:
                    vaddrs = base + pidx * PAGE_SIZE
                    pidx = pidx[
                        (vaddrs >= vma.start) & (vaddrs < vma.end)
                    ]
                count += int(
                    np.count_nonzero(leaf.entries()[pidx] & _ACCESSED)
                )
        return count

    @_user_path
    def clear_accessed_bits(self) -> None:
        """Age the accessed bits, as the WSS estimation loop does.

        The kernel flushes the TLB alongside, so the next access performs
        a fresh walk and re-marks the entry.
        """
        self.tlb.flush_all()
        for vma in self.vmas:
            for pmd, idx, _ in self.page_table.iter_pmd_slots(
                vma.start, vma.end
            ):
                leaf = pmd.get(idx)
                if leaf is None:
                    continue
                leaf = require_pte_table(leaf)
                leaf.clear_flags_present(PTE_ACCESSED)

    # ------------------------------------------------------------------

    def snapshot_contents(self) -> dict[int, bytes]:
        """Map of page-aligned vaddr -> page bytes for all present pages.

        Used by tests as the ground truth "point-in-time" image.
        """
        image: dict[int, bytes] = {}
        with hooks.suppressed():
            for vma in self.vmas:
                for vaddr, pte in self.page_table.iter_present_ptes(
                    vma.start, vma.end
                ):
                    image[vaddr] = self.frames.read(pte_frame(pte))
        return image
