"""Tests for the trylock_page serialization between copier and parent.

§4.2: "Since both parent and child processes lock the page of the PTE
table with trylock_page() when they are copying PMD entries and PTEs,
they will not copy PTEs pointed by the same PMD entry at the same time."
"""

from __future__ import annotations

from repro.core.async_fork import AsyncFork
from repro.units import MIB
from tests.faults.frame_faults import fail_allocations


class TestTrylockSkip:
    def test_child_skips_locked_table(self, parent):
        result = AsyncFork().fork(parent)
        vma = next(iter(parent.mm.vmas))
        leaf = parent.mm.page_table.walk_pte_table(vma.start)
        assert leaf.page.trylock()
        try:
            # The child's first step finds table 0 locked and skips it,
            # copying the second table instead (or nothing this round).
            copied_while_locked = result.session.child_step()
            assert copied_while_locked <= 1
            found = parent.mm.page_table.walk_pmd(vma.start)
            assert found[0].is_write_protected(found[1])  # still pending
        finally:
            leaf.page.unlock()
        result.session.run_to_completion()
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"

    def test_proactive_sync_skips_locked_table(self, parent):
        result = AsyncFork().fork(parent)
        vma = next(iter(parent.mm.vmas))
        leaf = parent.mm.page_table.walk_pte_table(vma.start)
        assert leaf.page.trylock()
        try:
            # The checkpoint fires but the sync backs off on the lock;
            # the write still completes (the other side will copy).
            parent.mm.follow_page(vma.start)
            assert result.stats.proactive_syncs == 0
        finally:
            leaf.page.unlock()
        result.session.run_to_completion()
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"

    def test_lock_released_after_copy(self, parent):
        result = AsyncFork().fork(parent)
        result.session.run_to_completion()
        vma = next(iter(parent.mm.vmas))
        leaf = parent.mm.page_table.walk_pte_table(vma.start)
        assert leaf.page.trylock()  # nobody left it held
        leaf.page.unlock()


class TestEngineAbortPaths:
    def test_snapshot_job_abort_retires_child(self, frames):
        from repro.kvs.engine import KvEngine

        engine = KvEngine(fork_engine=AsyncFork(), frames=frames)
        engine.set("k", b"v")
        job = engine.bgsave()
        job.abort()
        assert not job.child.alive
        engine.bgsave().finish()  # the slot is free again

    def test_child_copy_failure_surfaces(self, frames):
        from repro.kvs.engine import KvEngine

        engine = KvEngine(fork_engine=AsyncFork(), frames=frames)
        for i in range(8):
            engine.set(f"k{i}", b"v" * 900)
        job = engine.bgsave()
        fail_allocations(frames, 0, only=lambda p: p.endswith("-table"))
        try:
            import pytest

            with pytest.raises(RuntimeError, match="snapshot child"):
                job.finish()
        finally:
            frames.attach_fault_plan(None)
        # The engine survives and can snapshot again.
        report = engine.bgsave().finish()
        assert report.file.entry_count == 8

    def test_rewrite_abort_resets_aof_state(self, frames):
        from repro.config import EngineConfig
        from repro.kvs.engine import KvEngine

        engine = KvEngine(
            fork_engine=AsyncFork(),
            config=EngineConfig(aof_enabled=True),
            frames=frames,
        )
        engine.set("k", b"v")
        job = engine.bgrewriteaof()
        job.abort()
        assert not engine.aof.rewriting
        engine.bgrewriteaof().finish()  # clean retry
