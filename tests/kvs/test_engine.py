"""Tests for the storage engine: BGSAVE / BGREWRITEAOF end-to-end."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.async_fork import AsyncFork
from repro.errors import SnapshotChildError, SnapshotInProgressError
from repro.kernel.forks.default import DefaultFork
from repro.kernel.forks.odf import OnDemandFork
from repro.kvs import rdb
from repro.kvs.aof import replay
from repro.kvs.engine import KvEngine


def make_engine(fork_engine=None, **config_kw) -> KvEngine:
    return KvEngine(
        fork_engine=fork_engine, config=EngineConfig(**config_kw)
    )


class TestCommands:
    def test_set_get_del(self):
        engine = make_engine()
        engine.set("k", b"v")
        assert engine.get("k") == b"v"
        assert engine.delete("k")
        assert engine.get("k") is None

    def test_commands_counted(self):
        engine = make_engine()
        engine.set("k", b"v")
        engine.get("k")
        assert engine.commands_processed == 2


@pytest.mark.parametrize(
    "fork_cls", [DefaultFork, OnDemandFork, AsyncFork]
)
class TestBgsave:
    def test_snapshot_is_point_in_time(self, fork_cls):
        engine = make_engine(fork_engine=fork_cls())
        for i in range(30):
            engine.set(f"k{i}", f"v{i}".encode())
        job = engine.bgsave()
        engine.set("k0", b"AFTER-FORK")
        engine.delete("k1")
        engine.set("new", b"born-late")
        report = job.finish()
        data = dict(rdb.load(report.file))
        assert data[b"k0"] == b"v0"
        assert data[b"k1"] == b"v1"
        assert b"new" not in data
        assert report.file.entry_count == 30

    def test_parent_keeps_serving(self, fork_cls):
        engine = make_engine(fork_engine=fork_cls())
        engine.set("k", b"v")
        job = engine.bgsave()
        engine.set("k", b"v2")
        assert engine.get("k") == b"v2"
        job.finish()
        assert engine.get("k") == b"v2"

    def test_concurrent_jobs_rejected(self, fork_cls):
        engine = make_engine(fork_engine=fork_cls())
        engine.set("k", b"v")
        job = engine.bgsave()
        with pytest.raises(SnapshotInProgressError):
            engine.bgsave()
        job.finish()
        engine.bgsave().finish()  # allowed again

    def test_dirty_counter_reset(self, fork_cls):
        engine = make_engine(fork_engine=fork_cls())
        engine.set("k", b"v")
        assert engine.store.dirty_since_save == 1
        engine.bgsave().finish()
        assert engine.store.dirty_since_save == 0

    def test_save_now_convenience(self, fork_cls):
        engine = make_engine(fork_engine=fork_cls())
        engine.set("k", b"v")
        report = engine.save_now()
        assert report.file.entry_count == 1

    def test_child_retired_after_finish(self, fork_cls):
        engine = make_engine(fork_engine=fork_cls())
        engine.set("k", b"v")
        job = engine.bgsave()
        job.finish()
        assert not job.child.alive

    def test_finish_idempotent(self, fork_cls):
        engine = make_engine(fork_engine=fork_cls())
        engine.set("k", b"v")
        job = engine.bgsave()
        first = job.finish()
        assert job.finish() is first


class TestAsyncForkSpecifics:
    def test_stepped_child_copy_with_interleaved_writes(self):
        engine = make_engine(fork_engine=AsyncFork())
        for i in range(40):
            engine.set(f"k{i}", b"x" * 500)
        job = engine.bgsave()
        # Interleave child copy steps with parent mutations.
        for i in range(40):
            engine.set(f"k{i}", b"y" * 500)
            job.step_child()
        report = job.finish()
        data = dict(rdb.load(report.file))
        assert all(data[f"k{i}".encode()] == b"x" * 500 for i in range(40))

    def test_snapshot_report_counts_syncs(self):
        engine = make_engine(fork_engine=AsyncFork())
        engine.set("k", b"v")
        job = engine.bgsave()
        engine.set("k", b"w")  # forces a proactive sync
        report = job.finish()
        assert report.proactive_syncs >= 1


class TestBgrewriteaof:
    def test_requires_aof(self):
        with pytest.raises(ValueError):
            make_engine().bgrewriteaof()

    @pytest.mark.parametrize(
        "fork_cls", [DefaultFork, OnDemandFork, AsyncFork]
    )
    def test_rewrite_compacts_and_keeps_tail(self, fork_cls):
        engine = make_engine(fork_engine=fork_cls(), aof_enabled=True)
        for i in range(10):
            engine.set("hot", str(i).encode())
        engine.set("cold", b"c")
        size_before = len(engine.aof)
        job = engine.bgrewriteaof()
        engine.set("during", b"d")
        log = job.finish()
        assert len(log) < size_before
        state = replay(log.records)
        assert state[b"hot"] == b"9"
        assert state[b"cold"] == b"c"
        assert state[b"during"] == b"d"

    def test_deletes_logged(self):
        engine = make_engine(aof_enabled=True)
        engine.set("k", b"v")
        engine.delete("k")
        assert replay(engine.aof.records) == {}

    def test_finish_after_abort_raises_the_failure(self):
        engine = make_engine(aof_enabled=True)
        engine.set("k", b"v")
        job = engine.bgrewriteaof()
        job.abort(reason="watchdog-timeout")
        assert job.failed
        with pytest.raises(SnapshotChildError, match="watchdog-timeout"):
            job.finish()
        assert not engine.aof.rewriting

    def test_finish_after_completion_returns_the_log(self):
        engine = make_engine(aof_enabled=True)
        engine.set("k", b"v")
        job = engine.bgrewriteaof()
        log = job.finish()
        assert job.finish() is log

    def test_rewrite_blocks_concurrent_bgsave(self):
        engine = make_engine(aof_enabled=True)
        engine.set("k", b"v")
        job = engine.bgrewriteaof()
        with pytest.raises(SnapshotInProgressError):
            engine.bgsave()
        job.finish()


class TestKeyDb:
    def test_defaults_to_four_threads(self):
        from repro.kvs.keydb import KeyDbEngine

        engine = KeyDbEngine()
        assert engine.server_threads == 4

    def test_single_thread_config_promoted(self):
        from repro.kvs.keydb import KeyDbEngine

        engine = KeyDbEngine(config=EngineConfig(threads=1))
        assert engine.server_threads == 4

    def test_snapshot_works_like_redis(self):
        from repro.kvs.keydb import KeyDbEngine

        engine = KeyDbEngine(fork_engine=AsyncFork())
        engine.set("k", b"v")
        report = engine.bgsave().finish()
        assert dict(rdb.load(report.file)) == {b"k": b"v"}
