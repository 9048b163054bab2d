"""``AddressSpace.read_pages`` is observably per-page ``read_memory``.

The tests build the same address-space state twice, read a page list
through the batched path on one copy and page by page through
``read_memory`` on the other, and demand identical bytes, TLB counters
and entries, final PTE words (plus the cached index sets), fault counts,
``mm.fault`` trace instants and, with access hooks installed, the same
recorded ``ACCESS_HOOKS`` event sequence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import hooks
from repro.mem import checkpoints as cp
from repro.mem.address_space import AddressSpace, table_run_bounds
from repro.mem.flags import (
    PTE_ACCESSED,
    PTE_PRESENT,
    PTE_SPECIAL,
    PTE_SWAP,
    pte_frame,
)
from repro.mem.frames import FrameAllocator
from repro.mem.reclaim import change_prot_numa, swap_out
from repro.obs import tracer as obs
from repro.obs.export import chrome_trace_json
from repro.units import MIB, PAGE_SIZE, PTE_TABLE_SPAN

#: Three PTE tables' worth of pages: runs cross table boundaries.
NPAGES = 3 * PTE_TABLE_SPAN // PAGE_SIZE


def _page_index():
    # A few pages on each side of the table boundaries: runs both stay in
    # one table and straddle two, and ops and reads hit the same pages.
    near = [*range(0, 6), *range(508, 518), *range(1020, 1030)]
    return st.sampled_from([*near, *range(NPAGES - 6, NPAGES)])


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["write", "read", "swap", "numa", "stale", "flush", "age"]
        ),
        _page_index(),
    ),
    max_size=40,
)
READS = st.lists(_page_index(), min_size=1, max_size=48)


class World:
    """One address space rebuilt deterministically from an op list."""

    def __init__(self, ops) -> None:
        self.frames = FrameAllocator()
        self.mm = AddressSpace(self.frames, name="reader")
        self.vma = self.mm.mmap(3 * PTE_TABLE_SPAN)
        assert self.vma.start % PTE_TABLE_SPAN == 0
        for kind, i in ops:
            self.apply(kind, i)

    def page(self, i: int) -> int:
        return self.vma.start + i * PAGE_SIZE

    def apply(self, kind: str, i: int) -> None:
        mm, vaddr = self.mm, self.page(i)
        pte = mm.page_table.get_pte(vaddr)
        present_data = pte & PTE_PRESENT and pte_frame(pte) != 0
        if kind == "write":
            mm.write_memory(vaddr, bytes([i % 251 + 1]) * 64)
        elif kind == "read":
            mm.read_memory(vaddr + 8, 8)
        elif kind == "swap" and present_data:
            swap_out([mm], vaddr, self.frames)
        elif kind == "numa" and present_data:
            change_prot_numa(mm, vaddr, vaddr + PAGE_SIZE)
        elif kind == "stale" and pte & PTE_PRESENT:
            # Table 1: the PTE goes away behind the TLB's back (nobody
            # flushes); the frame stays allocated, so a cached
            # translation keeps reading it.
            mm.read_memory(vaddr, 1)
            mm.page_table.clear_pte(vaddr)
        elif kind == "flush":
            mm.tlb.flush_page(vaddr)
        elif kind == "age":
            # WSS aging: ACCESSED cleared everywhere, TLB flushed, so the
            # next reads must set the bit again.
            mm.clear_accessed_bits()

    def observe(self) -> dict:
        mm = self.mm
        tables = []
        for pmd, idx, _ in mm.page_table.iter_pmd_slots(
            self.vma.start, self.vma.end
        ):
            leaf = pmd.get(idx)
            if leaf is None:
                tables.append(None)
                continue
            words = leaf.entries()
            # The cached index sets must still match a fresh scan.
            assert leaf.present_indices() == np.flatnonzero(
                words & np.uint64(PTE_PRESENT)
            ).tolist()
            tables.append((words.tolist(), leaf.present_count))
        return {
            "tables": tables,
            "tlb": list(mm.tlb.entries()),
            "hits": mm.tlb.hits,
            "misses": mm.tlb.misses,
            "flushes": mm.tlb.flushes,
            "faults": mm.stats["faults"],
            "rss": mm.rss,
        }


def _read(world: World, pages: list[int], batched: bool):
    if batched:
        return world.mm.read_pages(pages)
    return [world.mm.read_memory(p, PAGE_SIZE) for p in pages]


def _traced(world: World, pages: list[int], batched: bool):
    tracer = obs.Tracer()
    obs.install(tracer)
    try:
        data = _read(world, pages, batched)
    finally:
        obs.uninstall(tracer)
    return data, chrome_trace_json(tracer)


def _with_access_hooks(world: World, pages: list[int], batched: bool):
    events: list[tuple] = []

    def record(op, kind, obj):
        events.append((op, kind, obj, hooks.current_context()))

    hooks.ACCESS_HOOKS.append(record)
    try:
        data = _read(world, pages, batched)
    finally:
        hooks.ACCESS_HOOKS.remove(record)
    return data, events


def assert_equivalent(ops, indices: list[int], setup=None) -> World:
    """Compare batched and per-page reads of ``indices``; returns the
    batched world for further checks.  ``setup(world)`` runs on every
    world before the reads."""

    def build() -> World:
        world = World(ops)
        if setup is not None:
            setup(world)
        return world

    batched, scalar = build(), build()
    pages = [batched.page(i) for i in indices]
    got, got_trace = _traced(batched, pages, batched=True)
    want, want_trace = _traced(scalar, pages, batched=False)
    assert got == want
    assert batched.observe() == scalar.observe()
    assert got_trace == want_trace

    hooked_b, hooked_s = build(), build()
    got, got_events = _with_access_hooks(hooked_b, pages, batched=True)
    want, want_events = _with_access_hooks(hooked_s, pages, batched=False)
    assert got == want
    assert got_events == want_events
    assert hooked_b.observe() == hooked_s.observe()
    return batched


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS, indices=READS)
def test_read_pages_matches_per_page_reads(ops, indices):
    assert_equivalent(ops, indices)


class TestExplicitCases:
    def test_zero_page_read_faults(self):
        world = assert_equivalent([], [5, 6, 7, 600])
        mm = world.mm
        assert mm.stats["faults"] == 4
        for i in (5, 6, 7, 600):
            pte = mm.page_table.get_pte(world.page(i))
            assert pte & PTE_PRESENT and pte_frame(pte) == 0
            assert pte & PTE_ACCESSED

    def test_swapped_out_pte(self):
        ops = [("write", 3), ("write", 4), ("swap", 3)]
        world = World(ops)
        assert world.mm.page_table.get_pte(world.page(3)) & PTE_SWAP
        world = assert_equivalent(ops, [2, 3, 4])
        assert world.mm.read_pages([world.page(3)])[0][:64] == bytes([4]) * 64

    def test_numa_hint_pte(self):
        ops = [("write", 9), ("write", 10), ("numa", 9)]
        world = World(ops)
        assert world.mm.page_table.get_pte(world.page(9)) & PTE_SPECIAL
        world = assert_equivalent(ops, [9, 10])
        pte = world.mm.page_table.get_pte(world.page(9))
        assert pte & PTE_PRESENT and not pte & PTE_SPECIAL

    def test_stale_tlb_entry_wins(self):
        ops = [("write", 20), ("stale", 20), ("write", 21)]
        world = assert_equivalent(ops, [21, 20])
        # The PTE is gone, but the cached translation still serves the
        # old frame's bytes — exactly what read_memory does (Table 1).
        assert world.mm.page_table.get_pte(world.page(20)) == 0
        assert world.mm.read_pages([world.page(20)])[0][:64] == (
            bytes([21]) * 64
        )

    def test_fault_flushing_later_pages_is_re_looked_up(self):
        # Swap-in flushes only its own page; a NUMA-poisoned neighbour
        # was flushed earlier, so both are looked up after the fault.
        ops = [("write", 1), ("write", 2), ("read", 2), ("swap", 1),
               ("numa", 2)]
        assert_equivalent(ops, [1, 2, 3])

    def test_fault_that_flushes_the_tlb_re_looks_up_the_rest(self):
        # A fault whose checkpoint subscriber shoots the whole TLB down:
        # the pages after it that were hits must be looked up again.
        def flush_on_fault(world: World) -> None:
            tlb = world.mm.tlb

            def subscriber(event):
                if event.name == cp.HANDLE_MM_FAULT:
                    tlb.flush_all()

            world.mm.subscribe(subscriber)

        ops = [("write", 1), ("read", 2), ("read", 3), ("write", 4)]
        world = assert_equivalent(ops, [1, 0, 2, 3, 5, 4], flush_on_fault)
        # Two misses while building; then only page 1 hits before the
        # first fault flushes everything.
        assert (world.mm.tlb.hits, world.mm.tlb.misses) == (1, 2 + 5)

    def test_thp_vma_falls_back(self):
        frames = FrameAllocator()
        worlds = []
        for _ in range(2):
            mm = AddressSpace(frames, name="thp")
            vma = mm.mmap_huge(2 * MIB)
            mm.write_memory(vma.start + PAGE_SIZE, b"huge!")
            worlds.append((mm, vma))
        (mm_b, vma_b), (mm_s, vma_s) = worlds
        pages_b = [vma_b.start + i * PAGE_SIZE for i in (0, 1, 2)]
        pages_s = [vma_s.start + i * PAGE_SIZE for i in (0, 1, 2)]
        got = mm_b.read_pages(pages_b)
        want = [mm_s.read_memory(p, PAGE_SIZE) for p in pages_s]
        assert got == want
        assert got[1][:5] == b"huge!"
        assert (mm_b.tlb.hits, mm_b.tlb.misses) == (
            mm_s.tlb.hits, mm_s.tlb.misses
        )

    def test_accessed_bit_set_on_present_misses(self):
        ops = [("write", 30), ("write", 31), ("age", 0)]
        world = assert_equivalent(ops, [30, 31])
        for i in (30, 31):
            assert world.mm.page_table.get_pte(world.page(i)) & PTE_ACCESSED

    def test_repeated_page_in_a_run(self):
        # The second read of page 7 must hit the entry the first inserted.
        assert_equivalent([("write", 7), ("flush", 7)], [7, 8, 7])

    def test_unaligned_address_rejected(self):
        world = World([])
        with pytest.raises(ValueError):
            world.mm.read_pages([world.page(1) + 8])

    def test_empty(self):
        assert World([]).mm.read_pages([]) == []


def test_table_run_bounds_keep_list_order():
    span = PTE_TABLE_SPAN
    pages = [0, PAGE_SIZE, span, span + PAGE_SIZE, 2 * PAGE_SIZE, 3 * span]
    assert table_run_bounds(pages) == [0, 2, 4, 5, 6]
