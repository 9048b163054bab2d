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

from repro.core.async_fork import AsyncFork
from repro.faults import SITE_DISK_WRITE, FaultPlan, FaultSpec
from repro.kernel.forks.default import DefaultFork
from repro.kernel.forks.odf import OnDemandFork
from repro.kvs import rdb
from repro.kvs.engine import KvEngine
from repro.kvs.resp import RespError
from repro.kvs.server import CommandServer
from repro.obs import tracer as obs
from repro.units import SEC
from tests.kvs.test_items_from import _reference_walk
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
        # One planning step, the slices, one closing step.
        assert steps == len(slices) + 2
        assert sum(s.attrs["keys"] for s in slices) == len(table)
        assert sum(s.attrs["bytes"] for s in slices) == sliced.size - 8

    def test_the_close_step_sizes_the_file_without_joining(self, fork_cls):
        _, table, job = _forked(fork_cls)
        tracemalloc.start()
        try:
            while not job.serialized:  # the last step closes
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                job.write_slice(BUDGET)
                _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        snapshot = job.finish().file
        size = 8 + sum(8 + len(key) + ref.length for key, ref in table.items())
        # Size and count are known before anything reads the file.
        assert snapshot.size == size
        assert snapshot.entry_count == len(table)
        assert peak - before < size // 20
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
        # Written and closed is not reaped: the next tick reaps, before
        # its command runs.
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
        assert job._writer is None and job._snapshot is None
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

