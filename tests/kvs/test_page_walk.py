"""``PageWalk``: the one keyspace walk, through its (key, value) pairs.

The walk must read each backing page once, in the key walk's
first-touch order (so faults and traces match a value-by-value walk),
and ``PageWalk.items`` must stream: it copies values out a block at a
time, so its new memory stays under about one PTE table's run of pages,
however large the keyspace.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import hooks
from repro.kernel.forks.default import DefaultFork
from repro.kernel.task import Process
from repro.kvs.store import KvStore, PageWalk, ValueRef
from repro.mem.address_space import AddressSpace
from repro.mem.frames import FrameAllocator
from repro.obs import tracer as obs
from repro.obs.export import chrome_trace_json
from repro.units import PAGE_SIZE, PTE_TABLE_SPAN

PAGES_PER_TABLE = PTE_TABLE_SPAN // PAGE_SIZE


def _reference_walk(mm, table):
    """The value-by-value walk: whole pages through ``read_memory`` on
    first touch, memoized for the whole keyspace."""
    cache: dict[int, bytes] = {}
    for key, ref in table.items():
        parts = []
        here, end = ref.vaddr, ref.vaddr + ref.length
        while here < end:
            page = here & ~(PAGE_SIZE - 1)
            if page not in cache:
                cache[page] = mm.read_memory(page, PAGE_SIZE)
            stop = min(end, page + PAGE_SIZE)
            parts.append(cache[page][here - page : stop - page])
            here = stop
        yield key, b"".join(parts)


def _observe(mm) -> tuple:
    return (
        list(mm.tlb.entries()),
        mm.tlb.hits,
        mm.tlb.misses,
        mm.stats["faults"],
        sorted(mm.snapshot_contents()),
    )


def _scattered_world():
    """An address space with a hand-built key table that jumps between
    PTE tables, comes back to pages read under an earlier run, straddles
    a table boundary and points at never-touched pages (zero-page read
    faults)."""
    mm = AddressSpace(FrameAllocator(), name="walker")
    base = mm.mmap(3 * PTE_TABLE_SPAN).start
    for i in range(0, 3 * PAGES_PER_TABLE, 7):
        mm.write_memory(base + i * PAGE_SIZE, bytes([i % 251]) * 96)
    t1, t2 = base + PTE_TABLE_SPAN, base + 2 * PTE_TABLE_SPAN
    table = {
        b"a": ValueRef(base, 100),
        b"b": ValueRef(t2 + 7 * PAGE_SIZE, 50),
        b"c": ValueRef(base + 40, 30),  # back on a page read before
        b"d": ValueRef(t1 - 10, 20),  # straddles tables 0 and 1
        b"e": ValueRef(t2 + 3 * PAGE_SIZE, 2 * PAGE_SIZE),  # zero pages
        b"f": ValueRef(base + 60, 4),  # back in table 0, page seen
        b"g": ValueRef(t1 + 14 * PAGE_SIZE, 0),
        b"h": ValueRef(t1 + 5, PAGE_SIZE),
    }
    return mm, table


class TestFirstTouchOrder:
    def test_matches_value_by_value_walk(self):
        mm_a, table = _scattered_world()
        mm_b, _ = _scattered_world()
        tracer_a, tracer_b = obs.Tracer(), obs.Tracer()
        obs.install(tracer_a)
        try:
            got = list(PageWalk(mm_a, table).items())
        finally:
            obs.uninstall(tracer_a)
        obs.install(tracer_b)
        try:
            want = list(_reference_walk(mm_b, table))
        finally:
            obs.uninstall(tracer_b)
        assert got == want
        assert _observe(mm_a) == _observe(mm_b)
        assert chrome_trace_json(tracer_a) == chrome_trace_json(tracer_b)

    def test_same_access_hook_events(self):
        recorded = []
        for walk in (
            lambda mm, t: PageWalk(mm, t).items(),
            _reference_walk,
        ):
            mm, table = _scattered_world()
            events: list[tuple] = []

            def record(op, kind, obj, events=events):
                events.append((op, kind, obj, hooks.current_context()))

            hooks.ACCESS_HOOKS.append(record)
            try:
                items = list(walk(mm, table))
            finally:
                hooks.ACCESS_HOOKS.remove(record)
            recorded.append((items, events))
        assert recorded[0] == recorded[1]
        assert recorded[0][1]  # the hooks did fire

    def test_pages_read_in_first_touch_runs(self):
        mm, table = _scattered_world()
        calls: list[list[int]] = []
        real = mm.read_pages

        def spy(pages):
            calls.append(list(pages))
            return real(pages)

        mm.read_pages = spy
        list(PageWalk(mm, table).items())
        base = table[b"a"].vaddr
        t1, t2 = base + PTE_TABLE_SPAN, base + 2 * PTE_TABLE_SPAN
        assert calls == [
            [base],
            [t2 + 7 * PAGE_SIZE],
            [t1 - PAGE_SIZE],
            [t1],
            [t2 + 3 * PAGE_SIZE, t2 + 4 * PAGE_SIZE],
            [t1 + PAGE_SIZE],
        ]


#: A value anywhere in the three tables of ``_scattered_world``: empty,
#: inside one page, or spanning pages and table boundaries.
VALUES = st.lists(
    st.tuples(
        st.integers(0, 3 * PTE_TABLE_SPAN - 3 * PAGE_SIZE),
        st.sampled_from([0, 1, 96, PAGE_SIZE - 1, PAGE_SIZE, 3 * PAGE_SIZE]),
    ),
    max_size=40,
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(values=VALUES, chunk_pages=st.sampled_from([None, 1, 2, 7]))
def test_any_table_and_read_cap_match_the_reference_walk(values, chunk_pages):
    """The numpy plan, the ``chunk_pages`` cap and the blocks
    ``items`` takes change nothing a value-by-value walk would show."""
    mm_a, scattered = _scattered_world()
    mm_b, _ = _scattered_world()
    base = scattered[b"a"].vaddr
    table = {
        b"k%02d" % i: ValueRef(base + offset, length)
        for i, (offset, length) in enumerate(values)
    }
    calls: list[int] = []
    real = mm_a.read_pages

    def spy(pages):
        calls.append(len(pages))
        return real(pages)

    mm_a.read_pages = spy
    got = list(PageWalk(mm_a, table, chunk_pages).items())
    assert got == list(_reference_walk(mm_b, table))
    assert _observe(mm_a) == _observe(mm_b)
    if chunk_pages is not None:
        assert all(n <= chunk_pages for n in calls)


class TestStreaming:
    def test_child_walk_caches_at_most_one_table_run(self, frames):
        parent = Process(frames, name="engine")
        store = KvStore(parent.mm)
        tables = 3
        nkeys = tables * PAGES_PER_TABLE
        for k in range(nkeys):
            store.set(b"key:%05d" % k, bytes([k % 251]) * PAGE_SIZE)
        child = DefaultFork().fork(parent).child
        first = store.table_snapshot()[b"key:00000"].vaddr
        last = store.table_snapshot()[b"key:%05d" % (nkeys - 1)].vaddr
        assert (last - first) // PTE_TABLE_SPAN >= tables - 1

        walk = PageWalk(child.mm, store.table_snapshot()).items()
        tracemalloc.start()
        try:
            count = 0
            for key, value in walk:
                assert value[:1] == bytes([int(key[4:]) % 251])
                count += 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == nkeys
        # The whole keyspace is three tables' worth of pages; holding it
        # all (the old per-walk page cache) would peak above 6 MiB.
        assert peak < PTE_TABLE_SPAN + PTE_TABLE_SPAN // 2
