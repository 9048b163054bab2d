"""§4.4 rollback, re-audited by MMSAN.

`test_async_fork_errors.py` asserts the visible aftermath of the three
failure phases (flags, exit codes, usability).  These tests point the
sanitizer at the same states and assert *every* memory-management
invariant — mapcounts, markers, TLBs, leaks — survived the rollback.
"""

from __future__ import annotations

import pytest

from repro.analysis.mmsan import Mmsan
from repro.core.async_fork import AsyncFork
from repro.errors import ForkError
from tests.faults.frame_faults import pte_table_failures


def audited(frames, *mms) -> Mmsan:
    san = Mmsan(frames)
    for mm in mms:
        san.track(mm)
    return san


class TestCase1ParentCopyRollback:
    """OOM while the parent copies PGD/PUD entries."""

    def test_parent_invariants_after_rollback(self, parent, frames):
        pte_table_failures(frames, 0)
        with pytest.raises(ForkError):
            AsyncFork().fork(parent)
        frames.attach_fault_plan(None)
        san = audited(frames, parent.mm)
        assert san.audit(pmd_markers=True) == []

    def test_no_leaks_after_rollback(self, parent, frames):
        pte_table_failures(frames, 0)
        with pytest.raises(ForkError):
            AsyncFork().fork(parent)
        frames.attach_fault_plan(None)
        san = audited(frames, parent.mm)
        assert san.audit(pmd_markers=True, strict_leaks=True) == []

    def test_retry_fork_audits_clean(self, parent, frames):
        pte_table_failures(frames, 0)
        with pytest.raises(ForkError):
            AsyncFork().fork(parent)
        frames.attach_fault_plan(None)
        result = AsyncFork().fork(parent)
        result.session.run_to_completion()
        san = audited(frames, parent.mm, result.child.mm)
        assert san.audit(pmd_markers=True) == []


class TestCase2ChildCopyRollback:
    """OOM while the child copies PMD/PTE entries."""

    def _fail_child(self, parent, frames):
        result = AsyncFork().fork(parent)
        pte_table_failures(frames, 0)
        result.session.run_to_completion()
        frames.attach_fault_plan(None)
        return result

    def test_invariants_after_child_copy_failure(self, parent, frames):
        result = self._fail_child(parent, frames)
        assert result.session.failed
        san = audited(frames, parent.mm, result.child.mm)
        assert san.audit(pmd_markers=True) == []

    def test_dead_child_fully_released(self, parent, frames):
        result = self._fail_child(parent, frames)
        # The SIGKILLed child's page-table frames must all be returned;
        # only the parent's own allocations remain.
        san = audited(frames, parent.mm, result.child.mm)
        assert san.audit(pmd_markers=True, strict_leaks=True) == []

    def test_parent_writable_again_and_clean(self, parent, frames):
        result = self._fail_child(parent, frames)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"recovered")
        san = audited(frames, parent.mm)
        assert san.audit(pmd_markers=True) == []


class TestCase3ProactiveSyncRollback:
    """OOM during a proactive synchronization."""

    def _fail_sync(self, parent, frames):
        result = AsyncFork().fork(parent)
        pte_table_failures(frames, 0)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"WRITE")  # sync fails, write ok
        frames.attach_fault_plan(None)
        return result, vma

    def test_invariants_after_sync_failure(self, parent, frames):
        result, _ = self._fail_sync(parent, frames)
        assert result.session.failed
        san = audited(frames, parent.mm, result.child.mm)
        assert san.audit(pmd_markers=True) == []

    def test_invariants_after_child_notices(self, parent, frames):
        result, _ = self._fail_sync(parent, frames)
        result.session.run_to_completion()
        assert not result.child.alive
        san = audited(frames, parent.mm, result.child.mm)
        assert san.audit(pmd_markers=True, strict_leaks=True) == []

    def test_parent_keeps_working_under_audit(self, parent, frames):
        result, vma = self._fail_sync(parent, frames)
        result.session.run_to_completion()
        san = audited(frames, parent.mm)
        for step in range(4):
            parent.mm.write_memory(
                vma.start + step * 4096, f"w{step}".encode()
            )
            assert san.audit(pmd_markers=True) == []
