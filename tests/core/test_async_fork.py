"""Tests for Async-fork (Algorithm 1): the paper's core contribution."""

from __future__ import annotations

import pytest

from repro.config import AsyncForkConfig
from repro.core.async_fork import AsyncFork
from repro.kernel.task import ProcessState
from repro.units import MIB


def fork(parent, **config_kw):
    engine = AsyncFork(config=AsyncForkConfig(**config_kw))
    return engine, engine.fork(parent)


class TestParentPhase:
    """Algorithm 1 lines 1-6: what happens inside the call."""

    def test_pmds_write_protected(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        for offset in (0, 2 * MIB):
            found = parent.mm.page_table.walk_pmd(vma.start + offset)
            assert found[0].is_write_protected(found[1])

    def test_child_pmd_slots_empty_after_call(self, parent):
        _, result = fork(parent)
        vma = next(iter(result.child.mm.vmas))
        found = result.child.mm.page_table.walk_pmd(vma.start)
        assert found is not None  # PUD/PMD path exists (parent copied it)
        assert not found[0].is_present(found[1])  # but no PTE tables yet

    def test_two_way_pointers_linked(self, parent):
        _, result = fork(parent)
        for vma in parent.mm.vmas:
            assert vma.peer is not None and vma.peer.open
            assert vma.peer.child_vma in list(result.child.mm.vmas)

    def test_call_cost_far_below_default_fork(self, parent):
        from repro.kernel.forks.default import DefaultFork

        engine, result = fork(parent)
        async_ns = result.stats.parent_call_ns

        default_engine = DefaultFork()
        default_ns = default_engine.fork(parent).stats.parent_call_ns
        assert async_ns < default_ns

    def test_child_in_kernel_copy_state(self, parent):
        _, result = fork(parent)
        assert result.child.state is ProcessState.KERNEL_COPY

    def test_no_ptes_copied_by_parent(self, parent):
        _, result = fork(parent)
        assert result.stats.parent_pte_entries == 0
        assert result.stats.pmd_marked == 2


class TestChildCopy:
    """Algorithm 1 lines 15-24: the child's copy loop."""

    def test_run_to_completion_copies_everything(self, parent):
        _, result = fork(parent)
        copied = result.session.run_to_completion()
        assert copied == 2
        assert result.stats.child_tables_copied == 2
        vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(vma.start, 5) == b"alpha"
        assert result.child.mm.read_memory(vma.start + 2 * MIB, 4) == b"beta"

    def test_pmd_marker_cleared_as_copied(self, parent):
        _, result = fork(parent)
        result.session.run_to_completion()
        vma = next(iter(parent.mm.vmas))
        found = parent.mm.page_table.walk_pmd(vma.start)
        assert not found[0].is_write_protected(found[1])

    def test_pointers_closed_after_copy(self, parent):
        _, result = fork(parent)
        result.session.run_to_completion()
        assert all(v.peer is None for v in parent.mm.vmas)
        assert all(v.peer is None for v in result.child.mm.vmas)

    def test_child_returns_to_user_mode(self, parent):
        _, result = fork(parent)
        result.session.run_to_completion()
        assert result.child.state is ProcessState.RUNNING
        assert result.session.done

    def test_data_pages_armed_for_cow(self, parent):
        _, result = fork(parent)
        result.session.run_to_completion()
        vma = next(iter(parent.mm.vmas))
        from repro.mem.flags import pte_writable

        assert not pte_writable(parent.mm.page_table.get_pte(vma.start))
        child_vma = next(iter(result.child.mm.vmas))
        assert not pte_writable(
            result.child.mm.page_table.get_pte(child_vma.start)
        )

    def test_stepping_is_incremental(self, parent):
        _, result = fork(parent)
        assert result.session.child_step() == 1
        assert result.stats.child_tables_copied == 1
        assert not result.session.done
        result.session.run_to_completion()
        assert result.session.done

    def test_multiple_workers_share_vmas(self, frames):
        from repro.kernel.task import Process

        p = Process(frames, name="multi")
        for i in range(4):
            vma = p.mm.mmap(MIB, fixed_at=(0x5000 + i) * 0x1_0000_0000)
            p.mm.write_memory(vma.start, bytes([65 + i]))
        _, result = fork(p, copy_threads=4)
        # One step advances all four workers, one VMA each.
        assert result.session.child_step() == 4
        # The next step drains the exhausted cursors and completes.
        assert result.session.child_step() == 0
        assert result.session.done


class TestProactiveSync:
    """Algorithm 1 lines 7-14: the parent detects and synchronizes."""

    def test_parent_write_syncs_before_modify(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"AFTER")
        assert result.stats.proactive_syncs == 1
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"
        assert parent.mm.read_memory(vma.start, 5) == b"AFTER"

    def test_sync_only_once_per_table(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"x")
        parent.mm.write_memory(vma.start + 4096, b"y")
        assert result.stats.proactive_syncs == 1

    def test_child_skips_synced_tables(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"x")  # syncs table 0
        copied = result.session.run_to_completion()
        assert copied == 1  # only the second table was left

    def test_parent_read_does_not_sync(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        assert parent.mm.read_memory(vma.start, 5) == b"alpha"
        assert result.stats.proactive_syncs == 0

    def test_munmap_syncs_whole_vma(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        start = vma.start
        parent.mm.munmap(start, 4 * MIB)
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"
        assert (
            result.child.mm.read_memory(child_vma.start + 2 * MIB, 4)
            == b"beta"
        )

    def test_madvise_syncs_before_dropping(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.madvise_dontneed(vma.start, 2 * MIB)
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"

    def test_oom_zap_syncs_before_reclaim(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.zap_pmd_range(vma.start, vma.start + 2 * MIB)
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"

    def test_numa_balance_syncs(self, parent):
        from repro.mem.reclaim import change_prot_numa

        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        change_prot_numa(parent.mm, vma.start, vma.end)
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"

    def test_gup_pin_syncs(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.follow_page(vma.start)
        assert result.stats.proactive_syncs == 1

    def test_vma_wide_sync_closes_pointer(self, parent):
        _, result = fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.mprotect(vma.start, vma.size, vma.prot)
        assert vma.peer is None

    def test_new_vma_after_fork_not_tracked(self, parent):
        _, result = fork(parent)
        extra = parent.mm.mmap(MIB)
        parent.mm.write_memory(extra.start, b"new")
        assert result.stats.proactive_syncs == 0
        result.session.run_to_completion()
        # The new VMA belongs to the parent only.
        assert result.child.mm.vmas.find(extra.start) is None

    def test_interruption_recorded_in_kernel_section(self, parent):
        engine = AsyncFork()
        episodes = []
        engine.clock.observe_kernel_sections(
            lambda r, s, e: episodes.append(r)
        )
        engine.fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"x")
        assert "async:proactive-sync" in episodes


class TestConsecutiveSnapshots:
    """§5.2: a second Async-fork while the first child is still copying."""

    def test_second_fork_completes_first_child(self, parent):
        engine = AsyncFork()
        first = engine.fork(parent)
        assert not first.session.done
        engine.fork(parent)
        # The previous child's copy was proactively completed and its
        # session retired before the new snapshot re-protected the PMDs.
        assert first.session.done
        assert first.stats.proactive_syncs == 2  # both tables pushed

    def test_second_fork_first_child_consistent(self, parent):
        engine = AsyncFork()
        first = engine.fork(parent)
        second = engine.fork(parent)
        child1_vma = next(iter(first.child.mm.vmas))
        assert first.child.mm.read_memory(child1_vma.start, 5) == b"alpha"
        second.session.run_to_completion()
        child2_vma = next(iter(second.child.mm.vmas))
        assert second.child.mm.read_memory(child2_vma.start, 5) == b"alpha"

    def test_both_children_isolated_from_parent_writes(self, parent):
        engine = AsyncFork()
        first = engine.fork(parent)
        second = engine.fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"THIRD")
        second.session.run_to_completion()
        for result in (first, second):
            child_vma = next(iter(result.child.mm.vmas))
            assert (
                result.child.mm.read_memory(child_vma.start, 5) == b"alpha"
            )

    def test_sequential_snapshots_after_completion(self, parent):
        engine = AsyncFork()
        for expected in (b"alpha", b"round", b"again"):
            result = engine.fork(parent)
            result.session.run_to_completion()
            child_vma = next(iter(result.child.mm.vmas))
            assert (
                result.child.mm.read_memory(child_vma.start, 5) == expected
            )
            result.child.exit()
            vma = next(iter(parent.mm.vmas))
            parent.mm.write_memory(
                vma.start, {b"alpha": b"round", b"round": b"again",
                            b"again": b"final"}[expected]
            )
