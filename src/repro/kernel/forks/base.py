"""The fork call every engine shares, and the session contract.

Default fork, ODF and Async-fork differ only in what the parent does to
each PMD slot inside the call (copy, share or write-protect it) and in
what session, if any, keeps working after the call returns (§3, §4,
Algorithm 1).  :meth:`ForkEngine._fork` runs the rest once: the
analysis probe, the ``fork:<name>`` kernel section, child creation, the
§4.4 parent-copy failure path, and the calibrated call cost.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis import hooks, runtime
from repro.errors import ForkError, OutOfMemoryError
from repro.kernel.clock import Clock
from repro.kernel.costs import DEFAULT_COSTS, CostModel
from repro.kernel.task import Process
from repro.mem.address_space import AddressSpace
from repro.mem.directory import DirectoryTable
from repro.mem.hugepage import HugePage
from repro.mem.vma import TwoWayPointer, Vma
from repro.obs import phases as obs_phases
from repro.obs import tracer as obs


@dataclass
class ForkStats:
    """Counters accumulated across one fork operation and its aftermath."""

    #: PGD/PUD/PMD entries the parent copied during the call.
    parent_dir_entries: int = 0
    #: PTEs the parent copied during the call (default fork only).
    parent_pte_entries: int = 0
    #: PMD entries the parent write-protected (Async-fork) or shared (ODF).
    pmd_marked: int = 0
    #: PTE tables the child copier cloned (Async-fork).
    child_tables_copied: int = 0
    #: Proactive synchronizations performed by the parent (Async-fork).
    proactive_syncs: int = 0
    #: Table CoW faults taken (ODF: either process unsharing a table).
    table_faults: int = 0
    #: Data-page CoW copies observed after the fork.
    data_cow_copies: int = 0
    #: PMD slots the parent examined while handling VMA-wide checkpoints
    #: (the two-way pointer exists to keep this near zero, §4.3).
    pmd_checks: int = 0
    #: Wall (simulated) duration of the parent's fork call.
    parent_call_ns: int = 0
    #: Errors encountered (phase name -> count).
    errors: dict = field(default_factory=dict)

    def record_error(self, phase: str) -> None:
        """Count an error by §4.4 phase."""
        self.errors[phase] = self.errors.get(phase, 0) + 1


class ForkSession:
    """Ongoing copy state of one fork, with a uniform failure contract.

    Every engine that returns a session in :class:`ForkResult` exposes:

    * ``active`` — the session still intercepts the parent (ODF until
      the job retires it, Async-fork until the child's copy ends);
      ``done`` is its negation.
    * ``failed`` / ``failure_reason`` — set through :meth:`mark_failed`
      when a §4.4 error path fires, so supervisors never have to probe
      with ``getattr``.
    * :meth:`cancel` — retire the session early because the child is
      exiting (an aborted BGSAVE, a watchdog kill); engines override it
      to undo their sharing/marker state.
    * ``copy_done``, :meth:`child_step` and :meth:`run_to_completion` —
      the child's page-table copy.  ODF copies lazily on faults, so its
      child can serialize right away: the copy is done and stepping is
      a no-op.  Async-fork overrides all three.
    """

    def __init__(
        self, parent: Process, child: Process, stats: ForkStats
    ) -> None:
        self.parent = parent
        self.child = child
        self.stats = stats
        self.active = True
        self.failed = False
        self.failure_reason: Optional[str] = None

    @property
    def done(self) -> bool:
        """Whether copying has finished (successfully or not)."""
        return not self.active

    @property
    def copy_done(self) -> bool:
        """Whether the child's snapshot needs no more copy steps."""
        return True

    def child_step(self) -> int:
        """Advance the child's copy one step; returns tables copied."""
        return 0

    def run_to_completion(self) -> int:
        """Finish the child's copy; returns tables copied."""
        return 0

    def mark_failed(self, reason: str) -> None:
        """Record that the session died and why."""
        self.failed = True
        self.failure_reason = reason

    def cancel(self) -> None:
        """Retire the session because the child is exiting early."""
        self.active = False


@dataclass
class ForkResult:
    """What a fork engine hands back to the caller."""

    child: Process
    stats: ForkStats
    #: Ongoing copy state; ``None`` for the default fork, which finishes
    #: everything inside the call.
    session: Optional[ForkSession] = None


#: The ``(pmd, index)`` slots a parent pass write-protected, which the
#: §4.4 rollback restores.
Marked = list[tuple[DirectoryTable, int]]


class ForkEngine(abc.ABC):
    """A fork implementation selectable per process (cf. §5.2).

    Subclasses supply the parent pass over each present PMD slot
    (:meth:`_pass_slot`) and what follows the call
    (:meth:`_open_session`); :meth:`_fork` runs the rest.
    """

    #: Short identifier used in reports ('default', 'odf', 'async').
    name: str = "abstract"
    #: Connect each parent/child VMA pair with a two-way pointer (§4.3).
    link_vmas = False

    def __init__(
        self,
        clock: Optional[Clock] = None,
        costs: CostModel = DEFAULT_COSTS,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.costs = costs

    @abc.abstractmethod
    def fork(self, parent: Process) -> ForkResult:
        """Create a child process holding a snapshot of ``parent``."""

    def attach_fault_plan(self, plan) -> None:
        """Install (or remove with ``None``) a chaos fault plan.

        Only Async-fork has an injection site of its own (the child
        copier); the other engines fail through the frame allocator.
        """

    # -- the parent's fork call -------------------------------------------

    def _fork(self, parent: Process) -> ForkResult:
        """The fork call: parent pass, §4.4 rollback, calibrated cost."""
        # fork() is a syscall: the parent pass is the parent's own user
        # path.
        with hooks.context(("user", parent.mm.name)):
            stats = ForkStats()
            probe = runtime.fork_probe(self, parent)
            start = self.clock.now
            self._prepare(parent)
            with self.clock.kernel_section(f"fork:{self.name}"):
                child = None
                marked: Marked = []
                try:
                    child = self._create_child(parent)
                    self._parent_pass(parent.mm, child.mm, stats, marked)
                except OutOfMemoryError as exc:
                    # §4.4 case 1: restore every PMD marker the pass set.
                    for pmd, idx in marked:
                        pmd.set_write_protected(idx, False)
                    self._undo(parent)
                    if child is not None:
                        child.exit(code=-1)
                    stats.record_error("parent-copy")
                    probe.failed()
                    raise ForkError(
                        f"{self.name} fork failed: {exc}",
                        phase="parent-copy",
                    ) from exc
                counts = parent.mm.page_table.level_counts()
                self.clock.advance(
                    self.costs.fork_call_ns(self.name, counts)
                )
                if obs.ACTIVE:
                    obs_phases.trace_fork_phases(
                        obs.emit, self.name, counts, self.costs, start
                    )
            stats.parent_call_ns = self.clock.now - start
            child.mm.rss = parent.mm.rss
            session = self._open_session(parent, child, stats)
            result = ForkResult(child=child, stats=stats, session=session)
            if session is not None and not session.copy_done:
                probe.async_started(session)
            else:
                if hooks.EDGE_HOOKS:
                    # The snapshot is complete before the child first
                    # runs.
                    hooks.notify_edge(
                        "publish", None, ("user", child.mm.name)
                    )
                probe.completed(result)
            return result

    def _prepare(self, parent: Process) -> None:
        """Work before the kernel section (Async-fork's §5.2 sync)."""

    def _undo(self, parent: Process) -> None:
        """Engine-specific §4.4 rollback beyond the PMD markers."""

    @abc.abstractmethod
    def _pass_slot(
        self,
        pmd: DirectoryTable,
        idx: int,
        base: int,
        leaf,
        child_mm: AddressSpace,
        stats: ForkStats,
        marked: Marked,
    ) -> None:
        """Copy, share or write-protect one present PTE-table slot."""

    @abc.abstractmethod
    def _open_session(
        self, parent: Process, child: Process, stats: ForkStats
    ) -> Optional[ForkSession]:
        """What keeps working after the call returns (``None``: nothing)."""

    # -- helpers shared by the engines -----------------------------------

    def _parent_pass(
        self,
        parent_mm: AddressSpace,
        child_mm: AddressSpace,
        stats: ForkStats,
        marked: Marked,
    ) -> None:
        page_table = parent_mm.page_table
        for vma in parent_mm.vmas:
            stats.parent_dir_entries += self._copy_upper_levels(
                parent_mm, child_mm, vma
            )
            for pmd, idx, base in page_table.iter_pmd_slots(
                vma.start, vma.end
            ):
                leaf = pmd.get(idx)
                if leaf is None:
                    continue
                if isinstance(leaf, HugePage):
                    self._share_huge(pmd, idx, base, leaf, child_mm, marked)
                    continue
                self._pass_slot(
                    pmd, idx, base, leaf, child_mm, stats, marked
                )

    def _share_huge(
        self,
        pmd: DirectoryTable,
        idx: int,
        base: int,
        page: HugePage,
        child_mm: AddressSpace,
        marked: Marked,
    ) -> None:
        """THP: one PMD entry shares the whole 2 MiB page; both sides CoW
        at huge granularity (§3.2's amplification hazard)."""
        child_pmd, child_idx = self._child_slot(child_mm, base)
        child_pmd.set(child_idx, page)
        page.mapcount += 1
        self._write_protect(pmd, idx, marked)
        child_pmd.set_write_protected(child_idx, True)

    @staticmethod
    def _child_slot(
        child_mm: AddressSpace, base: int
    ) -> tuple[DirectoryTable, int]:
        found = child_mm.page_table.walk_pmd(base, create=True)
        assert found is not None
        return found

    @staticmethod
    def _write_protect(pmd: DirectoryTable, idx: int, marked: Marked) -> None:
        """Set a parent PMD marker, noting it for the §4.4 rollback.

        A marker that is already set belongs to an earlier child still
        sharing the slot, so the rollback must leave it alone.
        """
        if not pmd.is_write_protected(idx):
            pmd.set_write_protected(idx, True)
            marked.append((pmd, idx))

    def _create_child(self, parent: Process) -> Process:
        """Allocate the child task and clone the VMA layout."""
        child = Process(
            parent.mm.frames, name=f"{parent.name}-child", parent=parent
        )
        for vma in parent.mm.vmas:
            child_vma = Vma(vma.start, vma.end, vma.prot, vma.tag)
            child.mm.vmas.insert(child_vma, merge=False)
            if self.link_vmas:
                pointer = TwoWayPointer(vma, child_vma)
                vma.peer = pointer
                child_vma.peer = pointer
        if hooks.EDGE_HOOKS:
            # Everything the parent did before fork() happens-before
            # everything the child ever does.
            hooks.notify_edge("fork", None, ("user", child.mm.name))
        return child
    def _copy_upper_levels(
        self, parent_mm: AddressSpace, child_mm: AddressSpace, vma: Vma
    ) -> int:
        """Create child PUD/PMD directories covering ``vma``.

        Returns the number of directory entries created, for cost
        accounting.  PMD *slots* stay empty — filling them is the part
        each engine does differently.
        """
        created = 0
        for _, _, base in parent_mm.page_table.iter_pmd_slots(
            vma.start, vma.end
        ):
            before = child_mm.page_table.walk_pmd(base)
            child_mm.page_table.walk_pmd(base, create=True)
            if before is None:
                created += 1
        return created
