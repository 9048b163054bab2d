"""Tests for the default fork engine."""

from __future__ import annotations

import pytest

from repro.errors import ForkError
from repro.kernel.forks.default import DefaultFork
from repro.units import MIB
from tests.faults.frame_faults import fail_allocations


class TestSnapshotSemantics:
    def test_child_sees_fork_time_data(self, parent):
        result = DefaultFork().fork(parent)
        vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(vma.start, 5) == b"alpha"
        assert (
            result.child.mm.read_memory(vma.start + 2 * MIB, 4) == b"beta"
        )

    def test_parent_write_does_not_leak_to_child(self, parent):
        result = DefaultFork().fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"MUTATED")
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"

    def test_child_write_does_not_leak_to_parent(self, parent):
        result = DefaultFork().fork(parent)
        child_vma = next(iter(result.child.mm.vmas))
        result.child.mm.write_memory(child_vma.start, b"CHILD")
        vma = next(iter(parent.mm.vmas))
        assert parent.mm.read_memory(vma.start, 5) == b"alpha"

    def test_unwritten_pages_share_frames(self, parent, frames):
        before = frames.allocated
        DefaultFork().fork(parent)
        # Only page-table frames were allocated, no data pages copied.
        data_frames = [
            f for f in frames.frames()
            if "data" in frames.page(f).tags
        ]
        assert len(data_frames) == 2  # the two original pages
        assert frames.allocated > before  # table frames exist

    def test_cow_copies_exactly_one_page(self, parent, frames):
        DefaultFork().fork(parent)
        vma = next(iter(parent.mm.vmas))
        before = parent.mm.stats["cow_copies"]
        parent.mm.write_memory(vma.start, b"x")
        assert parent.mm.stats["cow_copies"] == before + 1

    def test_vma_layout_cloned(self, parent):
        result = DefaultFork().fork(parent)
        parent_spans = [(v.start, v.end) for v in parent.mm.vmas]
        child_spans = [(v.start, v.end) for v in result.child.mm.vmas]
        assert parent_spans == child_spans


class TestStatsAndCosts:
    def test_call_duration_accounted(self, parent):
        engine = DefaultFork()
        result = engine.fork(parent)
        assert result.stats.parent_call_ns > 0
        assert engine.clock.now == result.stats.parent_call_ns

    def test_pte_entries_counted(self, parent):
        result = DefaultFork().fork(parent)
        assert result.stats.parent_pte_entries == 2

    def test_no_session(self, parent):
        assert DefaultFork().fork(parent).session is None

    def test_parent_tlb_flushed(self, parent):
        vma = next(iter(parent.mm.vmas))
        parent.mm.read_memory(vma.start, 1)
        assert len(parent.mm.tlb) > 0
        DefaultFork().fork(parent)
        assert len(parent.mm.tlb) == 0


class TestErrors:
    def test_oom_raises_fork_error(self, parent, frames):
        fail_allocations(frames, 0, only=lambda p: p == "pte-table")
        with pytest.raises(ForkError) as excinfo:
            DefaultFork().fork(parent)
        assert excinfo.value.phase == "parent-copy"

    def test_parent_still_usable_after_failed_fork(self, parent, frames):
        fail_allocations(frames, 0, only=lambda p: p == "pte-table")
        with pytest.raises(ForkError):
            DefaultFork().fork(parent)
        frames.attach_fault_plan(None)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"still-works")
        assert parent.mm.read_memory(vma.start, 11) == b"still-works"
