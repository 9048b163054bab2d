"""Opt-in runtime wiring: env flag, probes, and the KVS matrix."""

from __future__ import annotations

import pytest

from repro.analysis import runtime
from repro.config import EngineConfig
from repro.core.async_fork import AsyncFork
from repro.errors import SnapshotConsistencyError
from repro.kernel.forks.default import DefaultFork
from repro.kernel.forks.odf import OnDemandFork
from repro.kvs import rdb
from repro.kvs.engine import KvEngine


@pytest.fixture
def checkers(monkeypatch):
    """Force-enable the checkers for one test, restoring prior state."""
    was_active = runtime.current() is not None
    monkeypatch.setenv(runtime.ENV_FLAG, "1")
    yield runtime.activate()
    if not was_active:
        runtime.deactivate()


class TestActivation:
    def test_disabled_by_default_env(self, monkeypatch):
        monkeypatch.delenv(runtime.ENV_FLAG, raising=False)
        assert not runtime.enabled()
        monkeypatch.setenv(runtime.ENV_FLAG, "0")
        assert not runtime.enabled()

    def test_enabled_env_values(self, monkeypatch):
        monkeypatch.setenv(runtime.ENV_FLAG, "1")
        assert runtime.enabled()

    def test_null_probe_when_disabled(self, monkeypatch, parent):
        monkeypatch.delenv(runtime.ENV_FLAG, raising=False)
        probe = runtime.fork_probe(DefaultFork(), parent)
        assert probe is runtime.NULL_PROBE

    def test_real_probe_when_enabled(self, checkers, parent):
        probe = runtime.fork_probe(DefaultFork(), parent)
        assert isinstance(probe, runtime.ForkProbe)

    def test_activate_is_idempotent(self, checkers):
        assert runtime.activate() is runtime.current()

    def test_supervisor_keys_mmsan_per_allocator(self, checkers, frames):
        san = checkers.mmsan_for(frames)
        assert checkers.mmsan_for(frames) is san

    def test_dropped_allocators_are_freed(self, checkers):
        import gc
        import weakref

        from repro.kernel.task import Process
        from repro.mem.frames import FrameAllocator

        refs = []
        for i in range(5):
            frames = FrameAllocator()
            Process(frames, name=f"dropped{i}")  # tracked on creation
            refs.append(weakref.ref(frames))
        del frames
        gc.collect()
        assert [ref() for ref in refs] == [None] * 5

    def test_new_address_spaces_are_tracked(self, checkers, frames):
        from repro.kernel.task import Process

        process = Process(frames, name="tracked")
        san = checkers.mmsan_for(frames)
        assert any(mm is process.mm for mm in san.mms())


class TestProbes:
    def test_probe_passes_clean_fork(self, checkers, parent, frames):
        engine = DefaultFork()
        probe = runtime.ForkProbe(checkers, engine, parent)
        result = engine.fork(parent)
        probe.completed(result)  # must not raise

    def test_probe_raises_on_tampered_snapshot(self, checkers, parent):
        engine = DefaultFork()
        probe = runtime.ForkProbe(checkers, engine, parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"TAMPERED")  # after fingerprint
        result = engine.fork(parent)
        with pytest.raises(SnapshotConsistencyError):
            probe.completed(result)

    def test_engines_probe_transparently(self, checkers, parent, frames):
        # The engines create their own probes; a clean fork just works.
        result = AsyncFork().fork(parent)
        result.session.run_to_completion()
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"


class TestKvsMatrix:
    """BGSAVE / BGREWRITEAOF run clean under all checkers."""

    @pytest.mark.parametrize(
        "engine_cls", [DefaultFork, OnDemandFork, AsyncFork]
    )
    def test_bgsave(self, checkers, engine_cls):
        kv = KvEngine(fork_engine=engine_cls())
        for i in range(12):
            kv.set(f"key-{i}", f"value-{i}".encode() * 40)
        report = kv.save_now()
        restored = dict(rdb.load(report.file))
        assert restored[b"key-3"] == b"value-3" * 40

    @pytest.mark.parametrize(
        "engine_cls", [DefaultFork, OnDemandFork, AsyncFork]
    )
    def test_bgrewriteaof(self, checkers, engine_cls):
        kv = KvEngine(
            fork_engine=engine_cls(),
            config=EngineConfig(aof_enabled=True),
        )
        for i in range(8):
            kv.set(f"key-{i}", f"value-{i}".encode() * 40)
        kv.delete("key-0")
        job = kv.bgrewriteaof()
        aof = job.finish()
        assert aof is kv.aof

    def test_bgsave_with_parent_writes_interleaved(self, checkers):
        kv = KvEngine(fork_engine=AsyncFork())
        for i in range(12):
            kv.set(f"key-{i}", f"value-{i}".encode() * 40)
        job = kv.bgsave()
        kv.set("key-3", b"mutated-after-fork" * 20)  # proactive sync
        job.step_child()
        report = job.finish()
        restored = dict(rdb.load(report.file))
        # The snapshot is point-in-time: the post-fork write is absent.
        assert restored[b"key-3"] == b"value-3" * 40

    def test_aborted_bgsave_leaves_clean_state(self, checkers):
        kv = KvEngine(fork_engine=AsyncFork())
        for i in range(6):
            kv.set(f"key-{i}", f"value-{i}".encode() * 40)
        job = kv.bgsave()
        job.abort()
        # The next snapshot must neither sync into the dead child nor
        # trip MMSAN/oracle (the regression the checkers caught).
        report = kv.save_now()
        assert report.file.entry_count == 6
