"""Kernel copy threads (§5.1).

The child process may launch extra kernel threads so VMAs are copied in
parallel — "the kernel threads can totally perform the copy in parallel
and obtain near-linear speedup".  Because they burn CPU, they
"periodically check whether they should be preempted and give up CPU
resources by calling cond_resched()".

:class:`CopyWorker` models one such thread: it owns a shard of the VMA
worklist, counts the PMD entries it copies and skips, and yields
(``cond_resched``) every :data:`RESCHED_INTERVAL` copied tables so the
scheduler model can account for the interference §5.1 worries about.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

#: Copy this many tables between cond_resched() checks.
RESCHED_INTERVAL = 16


class CopyWorker:
    """One kernel thread draining a shard of the child's copy worklist."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.cursors: deque = deque()
        #: PMD entries whose PTE tables this thread copied.
        self.tables_copied = 0
        #: Slots examined but already copied/synced (cheap skips).
        self.slots_skipped = 0
        #: cond_resched() yields performed.
        self.resched_yields = 0
        self._since_resched = 0

    def add(self, cursor) -> None:
        """Queue one VMA cursor on this thread."""
        self.cursors.append(cursor)

    @property
    def idle(self) -> bool:
        """Whether this thread has drained its shard."""
        return not self.cursors

    def note_copy(self) -> None:
        """Account one copied table, yielding periodically."""
        self.tables_copied += 1
        self._since_resched += 1
        if self._since_resched >= RESCHED_INTERVAL:
            self.cond_resched()

    def note_skip(self) -> None:
        """Account one examined-but-already-copied slot."""
        self.slots_skipped += 1

    def cond_resched(self) -> None:
        """Voluntarily yield the CPU (kept as a counter in the model)."""
        self.resched_yields += 1
        self._since_resched = 0


def shard_round_robin(
    items, workers: list[CopyWorker], make_cursor: Callable
) -> None:
    """Distribute work items over the workers, round-robin by index.

    VMAs are independent (§5.1), so a static round-robin shard is enough
    for near-linear speedup in the model; the real kernel work-steals,
    which only matters for pathologically skewed VMA sizes.
    """
    for i, item in enumerate(items):
        workers[i % len(workers)].add(make_cursor(item))


def pool_stats(workers: list[CopyWorker]) -> dict:
    """Aggregate counters over a worker pool."""
    return {
        "threads": len(workers),
        "tables_copied": sum(w.tables_copied for w in workers),
        "slots_skipped": sum(w.slots_skipped for w in workers),
        "resched_yields": sum(w.resched_yields for w in workers),
    }
