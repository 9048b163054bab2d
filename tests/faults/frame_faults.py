"""Allocation-failure plans for the §4.4 error-handling tests.

Every injected OOM goes through the one path production uses: a
:class:`~repro.faults.plan.FaultPlan` attached to the frame allocator,
with an ``oom`` spec at the ``mem.frames.alloc`` site.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.faults.plan import SITE_FRAME_ALLOC, FaultPlan, FaultSpec
from repro.mem.frames import FrameAllocator


def fail_allocations(
    frames: FrameAllocator,
    after: int = 0,
    only: Optional[Callable[[str], bool]] = None,
) -> FaultPlan:
    """Attach a plan failing every allocation past the first ``after``.

    ``only`` filters by the allocation's purpose tag; allocations it
    rejects neither fail nor count towards ``after``.  Disarm with
    ``frames.attach_fault_plan(None)``.
    """
    match = None
    if only is not None:
        match = lambda detail: only(detail["purpose"])  # noqa: E731
    plan = FaultPlan(
        seed=0,
        specs=[
            FaultSpec(
                site=SITE_FRAME_ALLOC,
                kind="oom",
                after=after,
                count=None,
                match=match,
            )
        ],
    )
    frames.attach_fault_plan(plan)
    return plan


def pte_table_failures(frames: FrameAllocator, after: int = 0) -> FaultPlan:
    """Fail page-table allocations (every level, the PGD included)."""
    return fail_allocations(
        frames, after, only=lambda p: p.endswith("-table") or p == "pgd"
    )
