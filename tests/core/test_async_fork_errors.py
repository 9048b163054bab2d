"""§4.4 error handling: the three failure phases and their rollbacks."""

from __future__ import annotations

import pytest

from repro.core.async_fork import AsyncFork
from repro.errors import ForkError
from repro.units import MIB
from tests.faults.frame_faults import pte_table_failures


def all_pmds_writable(mm) -> bool:
    for vma in mm.vmas:
        for pmd, idx, _ in mm.page_table.iter_pmd_slots(vma.start, vma.end):
            if pmd.is_write_protected(idx):
                return False
    return True


class TestCase1ParentCopyFailure:
    """OOM while the parent copies PGD/PUD entries."""

    def test_raises_fork_error(self, parent, frames):
        pte_table_failures(frames, 0)
        with pytest.raises(ForkError) as excinfo:
            AsyncFork().fork(parent)
        assert excinfo.value.phase == "parent-copy"

    def test_rolls_back_pmd_flags(self, parent, frames):
        pte_table_failures(frames, 0)
        with pytest.raises(ForkError):
            AsyncFork().fork(parent)
        assert all_pmds_writable(parent.mm)

    def test_no_dangling_pointers(self, parent, frames):
        pte_table_failures(frames, 0)
        with pytest.raises(ForkError):
            AsyncFork().fork(parent)
        assert all(v.peer is None for v in parent.mm.vmas)

    def test_parent_usable_afterwards(self, parent, frames):
        pte_table_failures(frames, 0)
        with pytest.raises(ForkError):
            AsyncFork().fork(parent)
        frames.attach_fault_plan(None)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"fine")
        assert parent.mm.read_memory(vma.start, 4) == b"fine"

    def test_can_fork_again_after_failure(self, parent, frames):
        pte_table_failures(frames, 0)
        with pytest.raises(ForkError):
            AsyncFork().fork(parent)
        frames.attach_fault_plan(None)
        result = AsyncFork().fork(parent)
        result.session.run_to_completion()
        child_vma = next(iter(result.child.mm.vmas))
        assert result.child.mm.read_memory(child_vma.start, 5) == b"alpha"


class TestCase2ChildCopyFailure:
    """OOM while the child copies PMD/PTE entries."""

    def _fail_child(self, parent, frames):
        result = AsyncFork().fork(parent)
        pte_table_failures(frames, 0)
        result.session.run_to_completion()
        frames.attach_fault_plan(None)
        return result

    def test_session_marked_failed(self, parent, frames):
        result = self._fail_child(parent, frames)
        assert result.session.failed
        assert "child-copy" in result.stats.errors

    def test_child_sigkilled(self, parent, frames):
        result = self._fail_child(parent, frames)
        assert not result.child.alive
        assert result.child.exit_code == -9

    def test_parent_flags_rolled_back(self, parent, frames):
        result = self._fail_child(parent, frames)
        assert all_pmds_writable(parent.mm)

    def test_parent_never_syncs_after_failure(self, parent, frames):
        result = self._fail_child(parent, frames)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"x")
        assert result.stats.proactive_syncs == 0

    def test_parent_data_intact(self, parent, frames):
        self._fail_child(parent, frames)
        vma = next(iter(parent.mm.vmas))
        assert parent.mm.read_memory(vma.start, 5) == b"alpha"


class TestCase3ProactiveSyncFailure:
    """OOM during a proactive synchronization."""

    def _fail_sync(self, parent, frames):
        result = AsyncFork().fork(parent)
        pte_table_failures(frames, 0)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"WRITE")  # sync fails, write ok
        frames.attach_fault_plan(None)
        return result, vma

    def test_error_code_in_two_way_pointer(self, parent, frames):
        result, vma = self._fail_sync(parent, frames)
        assert result.session.failed
        assert "proactive-sync" in result.stats.errors

    def test_parent_write_still_succeeds(self, parent, frames):
        _, vma = self._fail_sync(parent, frames)
        assert parent.mm.read_memory(vma.start, 5) == b"WRITE"

    def test_vma_flags_rolled_back(self, parent, frames):
        result, vma = self._fail_sync(parent, frames)
        for pmd, idx, _ in parent.mm.page_table.iter_pmd_slots(
            vma.start, vma.end
        ):
            assert not pmd.is_write_protected(idx)

    def test_child_aborts_when_it_sees_the_error(self, parent, frames):
        result, _ = self._fail_sync(parent, frames)
        result.session.run_to_completion()
        assert not result.child.alive

    def test_parent_survives_whole_ordeal(self, parent, frames):
        result, vma = self._fail_sync(parent, frames)
        result.session.run_to_completion()
        parent.mm.write_memory(vma.start + MIB, b"more")
        assert parent.mm.read_memory(vma.start + MIB, 4) == b"more"
