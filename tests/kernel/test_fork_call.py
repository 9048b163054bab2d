"""The parent-call failure contract every fork engine shares (§4.4 case 1).

An out-of-memory error inside the parent's fork call must leave the
parent as it was: the call raises ``ForkError(phase="parent-copy")``,
the kernel section is reported aborted, the half-built child is gone,
no PMD slot is left write-protected, and the next fork succeeds.
"""

from __future__ import annotations

import pytest

from repro.analysis.mmsan import Mmsan
from repro.core.policy import FORK_METHODS, make_fork_engine
from repro.errors import ForkError
from repro.kernel.task import Process
from repro.mem.frames import FrameAllocator
from repro.units import MIB
from tests.faults.frame_faults import pte_table_failures

#: Three VMAs 4 GiB apart: each needs its own child PMD directory, so
#: a failure on the last one comes after the pass touched the others.
VMA_BASES = [(0x600 + i) * 0x1_0000_0000 for i in range(3)]


def build_parent(frames: FrameAllocator) -> Process:
    parent = Process(frames, name="parent")
    for i, base in enumerate(VMA_BASES):
        vma = parent.mm.mmap(4 * MIB, fixed_at=base)
        parent.mm.write_memory(vma.start, b"vma%d" % i)
        parent.mm.write_memory(vma.start + 2 * MIB, b"hi%d" % i)
    return parent


def table_allocations(method: str) -> int:
    """Page-table allocations one successful fork of the layout makes."""
    frames = FrameAllocator()
    parent = build_parent(frames)
    plan = pte_table_failures(frames, after=10**9)
    make_fork_engine(method).fork(parent)
    return plan.specs[0].seen


def write_protected_slots(mm) -> list[int]:
    return [
        base
        for vma in mm.vmas
        for pmd, idx, base in mm.page_table.iter_pmd_slots(vma.start, vma.end)
        if pmd.is_write_protected(idx)
    ]


@pytest.mark.parametrize("method", FORK_METHODS)
def test_parent_call_failure_contract(method):
    frames = FrameAllocator()
    parent = build_parent(frames)
    engine = make_fork_engine(method)
    sections: list[str] = []
    engine.clock.observe_kernel_sections(
        lambda reason, start, end: sections.append(reason)
    )
    allocated = frames.allocated
    # Fail the last page-table allocation of the call, deep in the pass.
    plan = pte_table_failures(frames, after=table_allocations(method) - 1)

    with pytest.raises(ForkError) as excinfo:
        engine.fork(parent)

    assert plan.events, "the injected OOM never fired"
    assert excinfo.value.phase == "parent-copy"
    assert sections == [f"fork:{method}!aborted"]
    assert parent.children == []
    assert frames.allocated == allocated
    assert write_protected_slots(parent.mm) == []
    assert all(vma.peer is None or not vma.peer.open for vma in parent.mm.vmas)
    mmsan = Mmsan(frames)
    mmsan.track(parent.mm)
    assert mmsan.audit(pmd_markers=True) == []

    frames.attach_fault_plan(None)
    result = engine.fork(parent)
    if result.session is not None:
        result.session.run_to_completion()
    assert sections[-1] == f"fork:{method}"
    for i, base in enumerate(VMA_BASES):
        assert result.child.mm.read_memory(base, 4) == b"vma%d" % i
        assert result.child.mm.read_memory(base + 2 * MIB, 3) == b"hi%d" % i
    mmsan.track(result.child.mm)
    assert mmsan.audit() == []
