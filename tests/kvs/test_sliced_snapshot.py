"""The sliced BGSAVE child: resumable serialization between commands.

``SnapshotJob.write_slice`` serializes the child's keyspace one
byte-budgeted slice at a time, so parent writes land between slices.
The file must still be the fork-time state, byte for byte the same as a
one-shot dump; and a server that slices keeps Redis's BGSAVE semantics
until the reap.
"""

from __future__ import annotations

import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.async_fork import AsyncFork
from repro.determinism import seeded_random
from repro.faults import SITE_DISK_WRITE, FaultPlan, FaultSpec
from repro.kernel.forks.default import DefaultFork
from repro.kernel.forks.odf import OnDemandFork
from repro.kvs import rdb
from repro.kvs.engine import KvEngine
from repro.kvs.resp import RespError
from repro.kvs.server import CommandServer
from repro.kvs.store import PageWalk, ValueRef, page_values
from repro.mem.hugepage import HUGE_PAGE_SIZE
from repro.obs import tracer as obs
from repro.units import PAGE_SIZE, PTE_TABLE_SPAN, SEC
from tests.kvs.test_page_walk import (
    VALUES,
    _observe,
    _reference_walk,
    _scattered_world,
)
from tests.kvs.test_server_cron import info_fields, send

ENGINES = (DefaultFork, OnDemandFork, AsyncFork)
BUDGET = 2048
OVERSIZED = 5000


def _world(fork_cls) -> KvEngine:
    """A keyspace of 120 300-byte values, one value larger than
    ``BUDGET``, and one empty value."""
    engine = KvEngine(fork_engine=fork_cls())
    for i in range(120):
        engine.set(b"k%03d" % i, bytes([i % 251]) * 300)
        if i == 40:
            engine.set(b"big", b"B" * OVERSIZED)
        if i == 70:
            engine.set(b"empty", b"")
    return engine


def _forked(fork_cls):
    engine = _world(fork_cls)
    table = engine.store.table_snapshot()
    job = engine.bgsave()
    while not job.child_copy_done:
        job.step_child()
    return engine, table, job


def _write_between_slices(engine: KvEngine, slice_no: int) -> None:
    """Parent writes after slice ``slice_no``: keys still to be
    serialized (the table's tail) and one already written."""
    if slice_no == 1:
        engine.set(b"k100", b"x" * 300)  # in place
    elif slice_no == 2:
        engine.set(b"k101", b"y" * 900)  # larger: reallocates
    elif slice_no == 3:
        engine.delete(b"k102")
    elif slice_no == 4:
        freed = engine.store._table[b"k103"].vaddr
        engine.delete(b"k103")
        engine.set(b"reuser", b"z" * 300)
        assert engine.store._table[b"reuser"].vaddr == freed
    elif slice_no == 5:
        engine.set(b"k000", b"w" * 300)  # already serialized


@pytest.mark.parametrize("fork_cls", ENGINES, ids=lambda cls: cls.name)
class TestWritesBetweenSlices:
    def test_file_is_the_fork_time_state(self, fork_cls):
        _, table, ref_job = _forked(fork_cls)
        reference = rdb.dump(_reference_walk(ref_job.child.mm, table))
        one_shot = _forked(fork_cls)[2].finish().file

        engine, _, job = _forked(fork_cls)
        tracer = obs.install(obs.Tracer())
        try:
            steps = 0
            while not job.serialized:
                job.write_slice(BUDGET)
                steps += 1
                _write_between_slices(engine, steps - 1)
            sliced = job.finish().file
        finally:
            obs.uninstall(tracer)

        assert sliced.payload == reference.payload == one_shot.payload
        assert sliced.entry_count == reference.entry_count == len(table)
        assert sliced.digest == reference.digest == one_shot.digest
        slices = tracer.by_name("kvs.snapshot.slice")
        # One step opens the walk; every later one is a slice.
        assert steps == len(slices) + 1
        assert sum(s.attrs["keys"] for s in slices) == len(table)
        assert sum(s.attrs["bytes"] for s in slices) == sliced.size - 8

    def test_the_close_step_sizes_the_file_without_joining(
        self, fork_cls, monkeypatch
    ):
        """The reap closes the file: ``rdb.dump`` of the finished walk."""
        _, table, job = _forked(fork_cls)
        while not job.serialized:
            job.write_slice(BUDGET)
        dump, peaks = rdb.dump, []

        def measured(walk):
            tracemalloc.start()
            try:
                snapshot = dump(walk)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return snapshot

        monkeypatch.setattr(rdb, "dump", measured)
        snapshot = job.finish().file
        (peak,) = peaks
        size = 8 + sum(8 + len(key) + ref.length for key, ref in table.items())
        # Size and count are known before anything reads the file.
        assert snapshot.size == size
        assert snapshot.entry_count == len(table)
        assert peak < size // 20
        assert len(snapshot.payload) == size
        assert snapshot.digest == hashlib.blake2b(
            snapshot.payload, digest_size=16
        ).hexdigest()

    def test_a_slice_exceeds_the_budget_only_for_one_large_entry(
        self, fork_cls
    ):
        _, _, job = _forked(fork_cls)
        tracer = obs.install(obs.Tracer())
        try:
            while not job.serialized:
                job.write_slice(BUDGET)
        finally:
            obs.uninstall(tracer)
        job.finish()
        sizes = [
            (s.attrs["keys"], s.attrs["bytes"])
            for s in tracer.by_name("kvs.snapshot.slice")
        ]
        over = [(keys, nbytes) for keys, nbytes in sizes if nbytes > BUDGET]
        assert over == [(1, 8 + len(b"big") + OVERSIZED)]
        assert len(sizes) > 10


class TestServerWhileSliced:
    @staticmethod
    def _server(fork_cls=AsyncFork) -> CommandServer:
        engine = _world(fork_cls)
        return CommandServer(
            engine, save_points=(), snapshot_slice_bytes=BUDGET
        )

    @staticmethod
    def _until_reaped(server: CommandServer, limit: int = 500) -> None:
        for _ in range(limit):
            if server.engine.active_job is None:
                return
            send(server, "PING")
        raise AssertionError("the sliced BGSAVE was never reaped")

    @pytest.mark.parametrize("fork_cls", ENGINES, ids=lambda cls: cls.name)
    def test_bgsave_semantics_hold_until_the_reap(self, fork_cls):
        server = self._server(fork_cls)
        before = send(server, "LASTSAVE")
        server.engine.clock.advance(3 * SEC)
        reaped = []
        server.on_job_done = lambda job, error: reaped.append(job.report)
        assert send(server, "BGSAVE") == b"Background saving started"
        job = server.engine.active_job

        def info_in_progress():
            fields = info_fields(server)
            assert fields["rdb_bgsave_in_progress"] == "1"
            assert fields["completed_snapshots"] == "0"

        def lastsave_unchanged():
            assert send(server, "LASTSAVE") == before

        def second_bgsave_refused():
            again = send(server, "BGSAVE")
            assert isinstance(again, RespError)
            assert str(again) == "ERR Background save already in progress"

        probes = itertools.cycle(
            (info_in_progress, lastsave_unchanged, second_bgsave_refused)
        )
        ticks = 0
        while not job.serialized:  # every command here is one tick
            next(probes)()
            ticks += 1
        assert ticks > 5
        # Walked is not reaped: the next tick reaps, before its command
        # runs.
        assert server.engine.active_job is job
        fields = info_fields(server)
        assert fields["rdb_bgsave_in_progress"] == "0"
        assert fields["completed_snapshots"] == "1"
        assert fields["rdb_last_bgsave_status"] == "ok"
        assert send(server, "LASTSAVE") == before + 3
        (report,) = reaped
        assert report.file.entry_count == 122

    def test_disk_error_at_the_reap_fails_the_save_cleanly(self):
        server = self._server()
        engine = server.engine
        plan = FaultPlan(seed=3, specs=[FaultSpec(SITE_DISK_WRITE, "io-error")])
        engine.attach_fault_plan(plan)
        frames_before = engine.frames.allocated
        send(server, "BGSAVE")
        job = server.engine.active_job
        while not job.serialized:
            send(server, "PING")
        assert plan.events == []
        send(server, "PING")  # the reap tick: the disk write fails

        assert [e.site for e in plan.events] == [SITE_DISK_WRITE]
        assert server.engine.active_job is None
        fields = info_fields(server)
        assert fields["rdb_last_bgsave_status"] == "err"
        assert fields["failed_background_jobs"] == "1"
        assert fields["completed_snapshots"] == "0"
        assert job.failure_reason == "disk-write"
        assert not job.child.alive
        assert job._walk is None
        assert engine.frames.allocated == frames_before

        assert send(server, "BGSAVE") == b"Background saving started"
        self._until_reaped(server)
        fields = info_fields(server)
        assert fields["rdb_last_bgsave_status"] == "ok"
        assert fields["completed_snapshots"] == "1"
        assert fields["failed_background_jobs"] == "1"

    def test_unsliced_server_reaps_at_copy_done(self):
        engine = _world(DefaultFork)
        server = CommandServer(engine, save_points=())
        send(server, "BGSAVE")
        send(server, "PING")
        assert server.engine.active_job is None
        assert info_fields(server)["completed_snapshots"] == "1"


# ----------------------------------------------------------------------
# snapshots by reference: the file keeps page images, packs when read
# ----------------------------------------------------------------------

#: Values placed by hand in a THP region: inside one 4 KiB page, across
#: a 4 KiB boundary, and over several pages.
THP_VALUES = (
    (64, 100),
    (PAGE_SIZE - 30, 60),
    (5 * PAGE_SIZE + 7, 3 * PAGE_SIZE),
)


def _value_size(rng) -> int:
    """0, under a page, around a page (bump allocation makes many of
    these straddle a page boundary) or several pages."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randrange(1, PAGE_SIZE // 2)
    if kind == 2:
        return rng.randrange(PAGE_SIZE // 2, PAGE_SIZE + 64)
    return rng.randrange(2 * PAGE_SIZE, 4 * PAGE_SIZE)


def _mixed_world(fork_cls, seed: int):
    """A keyspace of drawn value sizes and, where the fork engine can
    fork huge pages, values in a THP region; returns the engine and
    the THP region's base (or ``None``)."""
    engine = KvEngine(fork_engine=fork_cls())
    rng = seeded_random(seed)
    for i in range(150):
        engine.set(b"m%03d" % i, rng.randbytes(_value_size(rng)))
    if fork_cls is AsyncFork:  # it refuses THP mappings (§4.2)
        return engine, None
    mm = engine.process.mm
    base = mm.mmap_huge(HUGE_PAGE_SIZE).start
    for j, (offset, size) in enumerate(THP_VALUES):
        mm.write_memory(base + offset, rng.randbytes(size))
        engine.store._table[b"thp%d" % j] = ValueRef(base + offset, size)
    return engine, base


def _mutate(engine: KvEngine, rng, thp_base) -> None:
    """Parent writes: SET in place, SET larger (reallocates), DEL, a
    new key that may reuse the freed block, and a THP-region write."""
    keys = [k for k in engine.store.keys() if k.startswith(b"m")]
    engine.set(rng.choice(keys), b"i")
    engine.set(rng.choice(keys), rng.randbytes(3 * PAGE_SIZE))
    engine.delete(rng.choice(keys))
    new_key = b"n%06d" % rng.randrange(10**6)
    engine.set(new_key, rng.randbytes(_value_size(rng)))
    if thp_base is not None:
        offset, size = THP_VALUES[rng.randrange(len(THP_VALUES))]
        engine.process.mm.write_memory(thp_base + offset, b"!" * size)


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("fork_cls", ENGINES, ids=lambda cls: cls.name)
def test_reference_file_is_the_fork_time_state(fork_cls, seed):
    """Whatever the parent writes between slices, after the last slice
    and after the reap, the file's first read packs the fork-time
    values."""
    engine, thp_base = _mixed_world(fork_cls, seed)
    job = engine.bgsave()
    store = engine.store
    table = job._table
    expected = rdb.dump([(key, store.get(key)) for key in table])
    straddles = [
        ref
        for ref in table.values()
        if ref.length
        and ref.vaddr // PAGE_SIZE != (ref.vaddr + ref.length - 1) // PAGE_SIZE
    ]
    assert straddles and any(ref.length == 0 for ref in table.values())
    rng = seeded_random(seed + 100)
    slices = 0
    while not job.serialized:
        if job.write_slice(BUDGET):
            slices += 1
        _mutate(engine, rng, thp_base)
    assert slices > 10
    _mutate(engine, rng, thp_base)  # walked, not reaped
    snapshot = job.finish().file
    _mutate(engine, rng, thp_base)  # reaped, never read
    assert snapshot.size == expected.size
    assert snapshot.entry_count == expected.entry_count == len(table)
    assert snapshot.payload == expected.payload
    assert snapshot.digest == expected.digest


@pytest.mark.parametrize("fork_cls", ENGINES, ids=lambda cls: cls.name)
def test_one_shot_reference_file_is_the_fork_time_state(fork_cls):
    engine, thp_base = _mixed_world(fork_cls, 3)
    job = engine.bgsave()
    expected = rdb.dump([(key, engine.store.get(key)) for key in job._table])
    snapshot = job.finish().file
    _mutate(engine, seeded_random(4), thp_base)
    assert snapshot.size == expected.size
    assert snapshot.payload == expected.payload
    assert snapshot.digest == expected.digest


@pytest.mark.parametrize("fork_cls", ENGINES, ids=lambda cls: cls.name)
def test_a_sliced_save_holds_page_images_not_copies(fork_cls):
    """On a dense table, the save (start, slices, reap) never
    holds half a table run of new memory, where copied values would
    hold the whole payload.  The first read leaves the payload plus at
    most one table run; while it joins, the parts and the payload exist
    at once."""
    engine = KvEngine(fork_engine=fork_cls())
    for i in range(2 * PTE_TABLE_SPAN // 1024):
        engine.set(b"d%06d" % i, bytes([i % 251]) * 1000)
    job = engine.bgsave()
    while not job.child_copy_done:
        job.step_child()
    tracemalloc.start()
    try:
        while not job.serialized:
            job.write_slice(384 * 1024)
        snapshot = job.finish().file
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        payload = snapshot.payload
        held, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(payload) == snapshot.size > PTE_TABLE_SPAN
    assert save_peak < PTE_TABLE_SPAN // 2
    assert held <= snapshot.size + PTE_TABLE_SPAN
    assert read_peak <= 2 * snapshot.size + PTE_TABLE_SPAN


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    values=VALUES,
    chunk_pages=st.sampled_from([None, 1, 2, 7]),
    budgets=st.lists(st.integers(1, 3 * PAGE_SIZE), min_size=1, max_size=6),
)
def test_page_walk_reads_what_the_streaming_walk_reads(
    values, chunk_pages, budgets
):
    """However a walk is cut into budgets, it reads the pages in the
    key walk's first-touch order, in runs cut where the PTE table
    changes and then every ``chunk_pages``, and its extents cut out the
    values a value-by-value walk reads."""
    mm_a, scattered = _scattered_world()
    mm_b, _ = _scattered_world()
    base = scattered[b"a"].vaddr
    table = {
        b"k%02d" % i: ValueRef(base + offset, length)
        for i, (offset, length) in enumerate(values)
    }
    order = list(
        dict.fromkeys(
            page
            for ref in table.values()
            if ref.length
            for page in range(
                ref.vaddr & -PAGE_SIZE, ref.vaddr + ref.length, PAGE_SIZE
            )
        )
    )
    by_table = [
        list(run)
        for _, run in itertools.groupby(
            order, key=lambda page: page // PTE_TABLE_SPAN
        )
    ]
    step = chunk_pages or PTE_TABLE_SPAN // PAGE_SIZE
    runs = [
        run[lo : lo + step] for run in by_table for lo in range(0, len(run), step)
    ]
    calls: list[list[int]] = []
    real = mm_a.read_pages

    def spy(pages):
        calls.append(list(pages))
        return real(pages)

    mm_a.read_pages = spy
    want = list(_reference_walk(mm_b, table))
    walk = PageWalk(mm_a, table, chunk_pages)
    got = []
    for budget in itertools.chain(budgets, itertools.repeat(None)):
        if walk.done:
            break
        keys, starts, lengths, nbytes = walk.take(budget)
        assert nbytes == 8 * len(keys) + sum(map(len, keys)) + lengths.sum()
        got += zip(keys, map(bytes, page_values(starts, lengths, walk.pages)))
    assert got == want
    assert calls == runs
    assert _observe(mm_a) == _observe(mm_b)
