"""A per-process TLB model with explicit flush semantics.

The TLB caches virtual-page -> physical-frame translations.  Its only
purpose here is to reproduce the data-leakage scenario of Table 1: with a
*shared* page table, the OS's page-migration loop cannot tell that the
child process still caches a stale translation, skips the child's flush,
and the child keeps reading the old frame.  Table 2 shows why Async-fork's
private page tables (plus the PTE-table page lock) make the same
interleaving safe; both are exercised in
``repro.experiments.tab01_02_tlb``.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis import hooks
from repro.obs import tracer as obs
from repro.obs.registry import MetricsRegistry
from repro.units import PAGE_SIZE, page_align_down

_PAGE_MASK = ~(PAGE_SIZE - 1)


class Tlb:
    """Translation lookaside buffer for one process."""

    def __init__(self, owner: str = "?") -> None:
        self.owner = owner
        self._entries: dict[int, int] = {}
        #: Pages whose cached translation was installed by a *write*
        #: (i.e. the hardware would also have set the TLB dirty/W bit).
        #: MMSAN uses this to flag stale-writable entries surviving a
        #: protection downgrade.
        self._writable: set[int] = set()
        #: Unified metrics; ``hits``/``misses``/``flushes`` below are
        #: thin views over these named counters (DESIGN.md scheme).
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter("tlb.hits")
        self._misses = self.metrics.counter("tlb.misses")
        self._flushes = self.metrics.counter("tlb.flushes")
        self.metrics.gauge("tlb.entries", supplier=lambda: len(self._entries))

    # -- legacy counter views ---------------------------------------------

    @property
    def hits(self) -> int:
        """Lookup hits (view over the ``tlb.hits`` counter)."""
        return self._hits.value

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.value = int(value)

    @property
    def misses(self) -> int:
        """Lookup misses (view over the ``tlb.misses`` counter)."""
        return self._misses.value

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses.value = int(value)

    @property
    def flushes(self) -> int:
        """Invalidation operations (view over ``tlb.flushes``)."""
        return self._flushes.value

    @flushes.setter
    def flushes(self, value: int) -> None:
        self._flushes.value = int(value)

    def lookup(self, vaddr: int) -> Optional[int]:
        """Cached frame for the page of ``vaddr``, or ``None`` on miss."""
        frame = self._entries.get(vaddr & _PAGE_MASK)
        if frame is None:
            self._misses.value += 1
        else:
            self._hits.value += 1
        return frame

    def peek_many(self, pages: list[int]) -> list[Optional[int]]:
        """Cached frames for page-aligned ``pages``, without counting.

        The batched read path peeks a run up front and charges the
        lookups it actually consumed through :meth:`count_lookups`.
        """
        get = self._entries.get
        return [get(page) for page in pages]

    def count_lookups(self, hits: int, misses: int) -> None:
        """Charge ``hits``/``misses`` as if :meth:`lookup` had run."""
        self._hits.value += hits
        self._misses.value += misses

    def insert(self, vaddr: int, frame: int, writable: bool = False) -> None:
        """Cache a translation (called after a page-table walk)."""
        page = vaddr & _PAGE_MASK
        self._entries[page] = frame
        if writable:
            self._writable.add(page)
        else:
            self._writable.discard(page)

    def insert_many(self, pages: list[int], frames: list[int]) -> None:
        """Cache read-only translations, as :meth:`insert` per page."""
        self._entries.update(zip(pages, frames))
        self._writable.difference_update(pages)

    def flush_page(self, vaddr: int) -> None:
        """Invalidate the entry for one page (INVLPG)."""
        if hooks.EDGE_HOOKS:
            hooks.notify_edge("tlb-flush", None, self.owner)
        page = vaddr & _PAGE_MASK
        self._entries.pop(page, None)
        self._writable.discard(page)
        self._flushes.value += 1
        if obs.ACTIVE:
            obs.emit_instant(
                "tlb.flush_page", obs.CAT_TLB, owner=self.owner, page=page
            )

    def flush_pages(self, pages: list[int]) -> None:
        """Invalidate many page-aligned addresses (a batch of INVLPGs).

        Counter- and trace-identical to calling :meth:`flush_page` once
        per page, in list order: ``flushes`` rises by ``len(pages)`` and,
        with tracing active, one ``tlb.flush_page`` instant is emitted
        per page.  The fast path only pays per-page Python cost for
        pages actually cached.
        """
        if not pages:
            return
        if obs.ACTIVE:
            for page in pages:  # lint: allow(pte-loop)
                self.flush_page(page)
            return
        if hooks.EDGE_HOOKS:
            hooks.notify_edge("tlb-flush", None, self.owner)
        entries = self._entries
        if entries:
            pop = entries.pop
            discard = self._writable.discard
            for page in pages:
                pop(page, None)
                discard(page)
        self._flushes.value += len(pages)

    def flush_range(self, lo: int, hi: int) -> None:
        """Invalidate every page in ``[lo, hi)`` (a range shootdown).

        Equivalent to one :meth:`flush_page` per page in ascending
        order — including the per-page ``flushes`` accounting the range
        shootdown IPIs stand in for.
        """
        lo = page_align_down(lo)
        npages = (hi - lo + PAGE_SIZE - 1) // PAGE_SIZE
        if npages <= 0:
            return
        if obs.ACTIVE:
            for page in range(lo, hi, PAGE_SIZE):  # lint: allow(pte-loop)
                self.flush_page(page)
            return
        if hooks.EDGE_HOOKS:
            hooks.notify_edge("tlb-flush", None, self.owner)
        entries = self._entries
        if entries:
            if len(entries) <= npages:
                drop = [p for p in entries if lo <= p < hi]
            else:
                drop = [
                    p
                    for p in range(lo, hi, PAGE_SIZE)
                    if p in entries
                ]
            for page in drop:
                del entries[page]
                self._writable.discard(page)
        self._flushes.value += npages

    def flush_all(self) -> None:
        """Invalidate everything (CR3 reload).

        Counts as one flush even when the TLB is already empty — the
        hardware reloads CR3 regardless of residency, and the shootdown
        IPI cost the counter stands in for is paid either way.
        """
        if hooks.EDGE_HOOKS:
            hooks.notify_edge("tlb-flush", None, self.owner)
        dropped = len(self._entries)
        self._entries.clear()
        self._writable.clear()
        self._flushes.value += 1
        if obs.ACTIVE:
            obs.emit_instant(
                "tlb.flush_all",
                obs.CAT_TLB,
                owner=self.owner,
                dropped=dropped,
            )

    def entries(self):
        """Iterate ``(page_vaddr, frame, writable)`` over cached entries."""
        for page, frame in self._entries.items():
            yield page, frame, page in self._writable

    def cached(self, vaddr: int) -> Optional[int]:
        """Peek without counting a hit/miss (used by assertions)."""
        return self._entries.get(page_align_down(vaddr))

    def __len__(self) -> int:
        return len(self._entries)
