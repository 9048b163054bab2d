"""Async-fork (Algorithm 1 of the paper).

The division of labour:

* **Parent, inside the call** — copy each VMA and its PGD/PUD entries to
  the child, write-protect all the VMA's PMD entries, link the VMA pair
  with a two-way pointer, put the child on a run queue, return to user
  mode.  Cost: microseconds (Figure 22).
* **Child, before returning to user mode** — walk the VMAs and copy every
  still-write-protected PMD entry plus its 512 PTEs from the parent,
  taking the PTE-table page lock (``trylock_page``) so it never races the
  parent's proactive synchronization on the same table.  Optionally
  sharded over multiple kernel threads (§5.1).
* **Parent, after the call** — every checkpoint (Table 3) that is about to
  modify PTEs checks the covering PMD entries' R/W flag; a
  write-protected entry means "not yet copied", so the parent copies the
  PMD entry and its full PTE table to the child *before* modifying it
  (proactive synchronization, §4.2).  VMA-wide modifications consult the
  two-way pointer first: a closed connection means the whole VMA is
  already copied and no PMD scan is needed (§4.3).

Error handling follows §4.4: whichever phase hits out-of-memory rolls the
parent's R/W flags back, the child is SIGKILLed, and (for a failed
proactive sync) the error code travels to the child through the two-way
pointer.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis import hooks
from repro.config import AsyncForkConfig
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.faults.plan import SITE_CHILD_COPY, FaultPlan
from repro.kernel.clock import Clock
from repro.kernel.kthread import CopyWorker, pool_stats, shard_round_robin
from repro.kernel.costs import DEFAULT_COSTS, CostModel
from repro.kernel.forks.base import (
    ForkEngine,
    ForkResult,
    ForkSession,
    ForkStats,
)
from repro.kernel.task import Process, ProcessState, SIGKILL
from repro.mem import checkpoints as cp
from repro.mem.checkpoints import CheckpointEvent
from repro.mem.cow import clone_pte_table_into
from repro.mem.directory import require_pte_table
from repro.mem.hugepage import count_huge_mappings
from repro.mem.vma import Vma
from repro.obs import tracer as obs
from repro.units import PTE_TABLE_SPAN


class AsyncFork(ForkEngine):
    """The Async-fork engine."""

    name = "async"
    link_vmas = True

    def __init__(
        self,
        clock: Optional[Clock] = None,
        costs: CostModel = DEFAULT_COSTS,
        config: AsyncForkConfig = AsyncForkConfig(),
    ) -> None:
        super().__init__(clock, costs)
        self.config = config
        #: Active sessions per parent pid (for consecutive snapshots).
        self._sessions: dict[int, "AsyncForkSession"] = {}
        #: Chaos plan injecting at the ``kernel.fork.child-copy`` site;
        #: captured by each session at fork time.
        self.fault_plan: Optional[FaultPlan] = None

    def attach_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install (or remove with ``None``) the chaos fault plan."""
        self.fault_plan = plan

    def fork(self, parent: Process) -> ForkResult:
        """Algorithm 1, parent part (lines 1-6)."""
        return self._fork(parent)

    def _prepare(self, parent: Process) -> None:
        if count_huge_mappings(parent.mm):
            # §4.2: the PMD R/W bit doubles as the copied-marker, which
            # is only free while no PMD maps a huge page.  (THP workloads
            # would not benefit anyway — their page tables are tiny.)
            raise ConfigurationError(
                "Async-fork cannot fork a process with transparent huge "
                "pages mapped: the PMD R/W bit is in use (§4.2)"
            )
        # Consecutive snapshots (§5.2): a VMA's page table may be copied by
        # only one child at a time.  If a previous child is still copying a
        # VMA, proactively push the whole VMA to it before re-forking.
        previous = self._sessions.get(parent.pid)
        if previous is not None and previous.active:
            for vma in list(parent.mm.vmas):
                if vma.peer is not None and vma.peer.open:
                    previous.sync_vma(vma, reason="async:prev-child-sync")
            # Every connection is now closed, so the previous session has
            # nothing left to copy; retire it before re-protecting PMDs,
            # otherwise its copy threads would race the new snapshot.
            previous.drain_closed_vmas()

    def _pass_slot(self, pmd, idx, base, leaf, child_mm, stats, marked):
        """Write-protect the PMD entry: "not yet copied" (§4.2)."""
        self._write_protect(pmd, idx, marked)
        stats.pmd_marked += 1

    def _undo(self, parent: Process) -> None:
        for vma in parent.mm.vmas:
            if vma.peer is not None:
                vma.peer.close()

    def _open_session(
        self, parent: Process, child: Process, stats: ForkStats
    ) -> "AsyncForkSession":
        child.state = ProcessState.KERNEL_COPY
        session = AsyncForkSession(self, parent, child, stats, self.config)
        self._sessions[parent.pid] = session
        return session


class AsyncForkSession(ForkSession):
    """Child copier + proactive synchronization for one Async-fork."""

    def __init__(
        self,
        engine: AsyncFork,
        parent: Process,
        child: Process,
        stats: ForkStats,
        config: AsyncForkConfig,
    ) -> None:
        super().__init__(parent, child, stats)
        self.engine = engine
        self.config = config
        #: Chaos plan for the ``kernel.fork.child-copy`` site, captured
        #: from the engine at fork time.
        self._fault_plan: Optional[FaultPlan] = engine.fault_plan
        #: Remaining steps of an injected copy-thread hang.
        self._hung_steps = 0
        #: Attached by the runtime checkers (repro.analysis.runtime).
        self._analysis_probe = None
        # Shard the child's VMA worklist over the copy threads (§5.1).
        # Each item is one child VMA; within a VMA the thread walks PMD
        # spans.
        threads = max(1, config.copy_threads)
        self._workers = [CopyWorker(i) for i in range(threads)]
        shard_round_robin(
            list(child.mm.vmas), self._workers, _VmaCopyCursor
        )
        if hooks.EDGE_HOOKS:
            # Spawning the copy threads orders them after everything the
            # parent did up to the fork call.
            for worker in self._workers:
                hooks.notify_edge(
                    "fork",
                    None,
                    ("copy", child.mm.name, worker.worker_id),
                )
        parent.mm.subscribe(self._on_checkpoint)

    # ------------------------------------------------------------------
    # child side (Algorithm 1, lines 15-24)
    # ------------------------------------------------------------------

    @property
    def copy_done(self) -> bool:
        """Whether the child copier has finished (or the session died)."""
        return not self.active

    def child_step(self) -> int:
        """Advance every copy thread by one PMD entry; returns copies made.

        The functional tier drives this cooperatively so tests can
        interleave parent activity at PMD granularity.

        Fault plan: each call asks the ``kernel.fork.child-copy`` site.
        ``sigkill`` is the mid-copy child death of §4.4 case 2 (as if
        the OOM killer picked the child); ``hang`` parks every copy
        thread for ``magnitude`` steps — long enough that a supervision
        watchdog must abort the snapshot.
        """
        if not self.active:
            return 0
        if self._hung_steps > 0:
            self._hung_steps -= 1
            return 0
        if self._fault_plan is not None:
            # Keyed by name, not pid: pids come from a process-global
            # counter and would break bit-identical replay.
            spec = self._fault_plan.fire(
                SITE_CHILD_COPY, child=self.child.name
            )
            if spec is not None:
                if spec.kind == "sigkill":
                    self._fail_child_copy("injected:sigkill")
                else:
                    self._hung_steps = max(1, spec.magnitude)
                return 0
        copied = 0
        child_name = self.child.mm.name
        for worker in self._workers:
            with hooks.context(("copy", child_name, worker.worker_id)):
                copied += self._worker_step(worker)
        if all(w.idle for w in self._workers):
            self._complete()
        return copied

    def worker_stats(self) -> dict:
        """Aggregate copy-thread counters (tables, skips, yields)."""
        return pool_stats(self._workers)

    def run_to_completion(self) -> int:
        """Drain the whole worklist (the common non-interleaved path).

        Raises if the copy cannot make progress because a PTE-table page
        lock is held indefinitely — in the kernel the child would sleep,
        but in the cooperative model an external holder must release it.
        """
        total = 0
        stalled = 0
        while self.active:
            step = self.child_step()
            total += step
            if self.failed:
                break
            if step == 0 and self.active:
                stalled += 1
                if stalled > 4096:
                    raise RuntimeError(
                        "child copy stalled: a PTE-table page lock is "
                        "held and never released"
                    )
            else:
                stalled = 0
        return total

    def drain_closed_vmas(self) -> None:
        """Drop worklist entries whose two-way pointer is already closed.

        Used when a consecutive snapshot proactively completed this
        session's VMAs: a closed connection means "fully copied", so the
        copy threads must not touch those VMAs again.
        """
        if not self.active:
            return
        for worker in self._workers:
            remaining = [
                c
                for c in worker.cursors
                if c.vma.peer is not None and c.vma.peer.open
            ]
            worker.cursors.clear()
            worker.cursors.extend(remaining)
        if all(w.idle for w in self._workers):
            self._complete()

    def cancel(self) -> None:
        """Retire the session because the child is exiting early.

        A child that dies before the copy completes (a BGSAVE abort, an
        OOM kill) must not leave the parent behind with dangling
        copied-markers and open two-way pointers: a later snapshot would
        otherwise "synchronize" tables into the dead child's address
        space.  Mirrors the §4.4 child-death cleanup without treating
        the fork as failed.
        """
        if not self.active:
            return
        self._rollback_all_wp()
        for vma in self.parent.mm.vmas:
            if vma.peer is not None:
                vma.peer.close()
        for worker in self._workers:
            worker.cursors.clear()
        self.active = False
        self._teardown()

    def _worker_step(self, worker: CopyWorker) -> int:
        while worker.cursors:
            cursor: _VmaCopyCursor = worker.cursors[0]
            if self._vma_error_abort(cursor.vma):
                return 0
            if cursor.vma.peer is None or not cursor.vma.peer.open:
                # Connection closed: the VMA was fully synchronized by the
                # parent (VMA-wide modification or consecutive snapshot).
                worker.cursors.popleft()
                continue
            base = cursor.peek()
            if base is None:
                # VMA exhausted: close the connection if no error occurred.
                self._finish_vma(cursor.vma)
                worker.cursors.popleft()
                continue
            try:
                status = self._copy_table(base, reason=None)
            except OutOfMemoryError:
                self._fail_child_copy("child-copy")
                return 0
            if status == "busy":
                # trylock_page lost: the parent (or a migration) holds the
                # table; retry this very base on the next step.
                return 0
            cursor.advance()
            if status == "copied":
                worker.note_copy()
                self.stats.child_tables_copied += 1
                return 1
            worker.note_skip()
        return 0

    def _vma_error_abort(self, child_vma: Vma) -> bool:
        """§4.4 case 3 handoff: the child checks the two-way pointer for an
        error code before (and after) copying a VMA."""
        pointer = child_vma.peer
        if pointer is not None and pointer.error is not None:
            self._fail_child_copy(f"sync-error:{pointer.error}")
            return True
        return False

    def _finish_vma(self, child_vma: Vma) -> None:
        if self._vma_error_abort(child_vma):
            return
        pointer = child_vma.peer
        if pointer is not None:
            pointer.close()

    def _complete(self) -> None:
        self.active = False
        if hooks.EDGE_HOOKS:
            # Joining the copy threads: the child may run (and the
            # parent may retire the session) only after every worker's
            # writes are visible.
            child_ctx = ("user", self.child.mm.name)
            for worker in self._workers:
                src = ("copy", self.child.mm.name, worker.worker_id)
                hooks.notify_edge("join", src, child_ctx)
                hooks.notify_edge("join", src, hooks.current_context())
        if not self.failed and self.child.state is ProcessState.KERNEL_COPY:
            self.child.state = ProcessState.RUNNING
        self._teardown()
        if not self.failed and self._analysis_probe is not None:
            self._analysis_probe.session_completed(self)

    def _teardown(self) -> None:
        if self._on_checkpoint in self.parent.mm.checkpoint_subscribers:
            self.parent.mm.unsubscribe(self._on_checkpoint)
        if self.engine._sessions.get(self.parent.pid) is self:
            del self.engine._sessions[self.parent.pid]

    # ------------------------------------------------------------------
    # the copy primitive (used by both sides)
    # ------------------------------------------------------------------

    def _copy_table(self, base: int, reason: Optional[str]) -> str:
        """Copy the PMD entry + 512 PTEs covering ``base`` to the child.

        Returns ``'copied'`` on success, ``'skip'`` when there is nothing
        to do (absent, or already copied by the other side), or ``'busy'``
        when the PTE-table page lock is held — the caller must retry
        (child copier) or may proceed knowing the lock holder completes
        the copy (parent sync; see §4.2's trylock discussion).
        """
        found = self.parent.mm.page_table.walk_pmd(base)
        if found is None:
            return "skip"
        pmd, idx = found
        if not pmd.is_present(idx) or not pmd.is_write_protected(idx):
            return "skip"
        leaf = require_pte_table(pmd.get(idx))
        if not leaf.page.trylock():
            return "busy"
        try:
            child_found = self.child.mm.page_table.walk_pmd(
                base, create=True
            )
            assert child_found is not None
            child_pmd, child_idx = child_found
            if child_pmd.is_present(child_idx):
                # Already copied by the other side between our flag check
                # and the lock; nothing to do.
                pmd.set_write_protected(idx, False)
                return "skip"
            child_leaf = self.child.mm.page_table.new_pte_table()
            copied = clone_pte_table_into(
                leaf, child_leaf, self.parent.mm.frames
            )
            child_pmd.set(child_idx, child_leaf)
            if hooks.EDGE_HOOKS:
                # The table is published to the child's walker the
                # moment the PMD slot is filled.
                hooks.notify_edge(
                    "publish", None, ("user", self.child.mm.name)
                )
            # Lines 11-12 / 20-21: PMD writable again, PTEs write-protected
            # (done inside the clone) to preserve the CoW strategy.
            pmd.set_write_protected(idx, False)
            span = (base // PTE_TABLE_SPAN) * PTE_TABLE_SPAN
            self._shootdown_parent_span(span)
            if reason is not None:
                self.stats.parent_pte_entries += copied
            elif obs.ACTIVE:
                # Child-side copy: no kernel section brackets it (it
                # runs on the copy threads), so mark it directly.
                obs.emit_instant(
                    "child.pte_copy",
                    obs.CAT_PHASE,
                    self.engine.clock.now,
                    base=base,
                    entries=copied,
                )
            return "copied"
        finally:
            leaf.page.unlock()

    def _shootdown_parent_span(self, span: int) -> None:
        """Shoot down the parent's TLB for a just-copied table's span.

        The clone write-protected the *parent's* PTEs (the data pages
        are CoW-shared now); any writable translation the parent still
        caches for the span must die, or a parent store lands in a
        frame the child's snapshot references (the shootdown PR 1's
        checkers found missing).
        """
        self.parent.mm._flush_tlb_range(span, span + PTE_TABLE_SPAN)

    # ------------------------------------------------------------------
    # parent side: proactive synchronization (Algorithm 1, lines 7-14)
    # ------------------------------------------------------------------

    def _on_checkpoint(self, event: CheckpointEvent) -> None:
        if not self.active or event.mm is not self.parent.mm:
            return
        if event.name == cp.HANDLE_MM_FAULT:
            if event.write and event.detail.get("pmd_wp"):
                self._sync_one(event.start)
        elif event.name in (cp.ZAP_PMD_RANGE, cp.FOLLOW_PAGE_PTE):
            self._sync_range(event.start, event.end)
        elif event.is_vma_wide:
            for vma in self.parent.mm.vmas.overlapping(
                event.start, event.end
            ):
                if self.config.use_two_way_pointer:
                    # Two-way pointer fast path: a closed connection means
                    # the VMA is fully copied — skip without scanning PMDs.
                    if vma.peer is not None and vma.peer.open:
                        self.sync_vma(vma)
                else:
                    # Ablation: without the pointer the parent has no O(1)
                    # answer and must loop over every PMD entry.
                    self._scan_vma_slots(vma)

    def _needs_sync(self, vaddr: int) -> bool:
        found = self.parent.mm.page_table.walk_pmd(vaddr)
        return (
            found is not None
            and found[0].is_present(found[1])
            and found[0].is_write_protected(found[1])
        )

    def _sync_one(self, vaddr: int) -> None:
        if not self._needs_sync(vaddr):
            return
        clock = self.engine.clock
        try:
            with clock.kernel_section(
                "async:proactive-sync", self.engine.costs.table_fault_ns()
            ):
                # 'busy' means the child copier holds the table lock right
                # now: the parent (which would sleep on the lock in the
                # kernel) proceeds once the holder finishes the copy.
                if self._copy_table(vaddr, reason="sync") == "copied":
                    self.stats.proactive_syncs += 1
        except OutOfMemoryError:
            # The OOM propagates *through* the kernel section so the
            # episode is recorded as aborted, not as a completed
            # interruption (Fig. 11), before the §4.4 rollback runs.
            self._fail_proactive_sync(vaddr)

    def _sync_range(self, start: int, end: int) -> None:
        base = (start // PTE_TABLE_SPAN) * PTE_TABLE_SPAN
        while base < end:
            self._sync_one(base)
            base += PTE_TABLE_SPAN

    def _scan_vma_slots(self, vma: Vma) -> None:
        """Pointer-less VMA-wide handling: examine every PMD entry."""
        base = (vma.start // PTE_TABLE_SPAN) * PTE_TABLE_SPAN
        while base < vma.end:
            self.stats.pmd_checks += 1
            if self._needs_sync(base):
                self._sync_one(base)
            base += PTE_TABLE_SPAN

    def sync_vma(self, vma: Vma, reason: str = "async:vma-sync") -> None:
        """Copy every remaining table of ``vma`` and close its pointer."""
        pointer = vma.peer
        if pointer is None or not pointer.open:
            return
        pointer.lock()
        try:
            clock = self.engine.clock
            base = (vma.start // PTE_TABLE_SPAN) * PTE_TABLE_SPAN
            while base < vma.end:
                self.stats.pmd_checks += 1
                found = self.parent.mm.page_table.walk_pmd(base)
                if (
                    found is not None
                    and found[0].is_present(found[1])
                    and found[0].is_write_protected(found[1])
                ):
                    try:
                        with clock.kernel_section(
                            reason, self.engine.costs.table_fault_ns()
                        ):
                            status = self._copy_table(base, reason="sync")
                            if status == "copied":
                                self.stats.proactive_syncs += 1
                    except OutOfMemoryError:
                        # Propagating through the section marks the
                        # episode aborted before the §4.4 rollback.
                        pointer.unlock()
                        self._fail_proactive_sync(base, vma=vma)
                        return
                base += PTE_TABLE_SPAN
        finally:
            if pointer.locked:
                pointer.unlock()
        pointer.close()

    # ------------------------------------------------------------------
    # §4.4 error handling
    # ------------------------------------------------------------------

    def _fail_child_copy(self, why: str) -> None:
        """Case 2: roll back remaining R/W flags and SIGKILL the child."""
        self.mark_failed(why)
        self.stats.record_error("child-copy")
        self._rollback_all_wp()
        self.child.signal(SIGKILL)
        self.child.deliver_signals()
        for worker in self._workers:
            worker.cursors.clear()
        self.active = False
        self._teardown()
        if self._analysis_probe is not None:
            self._analysis_probe.session_failed(self)

    def _fail_proactive_sync(
        self, vaddr: int, vma: Optional[Vma] = None
    ) -> None:
        """Case 3: roll back only the containing VMA's flags and store the
        error code in the two-way pointer for the child to find."""
        self.stats.record_error("proactive-sync")
        if vma is None:
            vma = self.parent.mm.vmas.find(vaddr)
        if vma is not None:
            self._rollback_vma_wp(vma)
            if vma.peer is not None:
                vma.peer.error = "ENOMEM"
        self.mark_failed("proactive-sync")
        if self._analysis_probe is not None:
            self._analysis_probe.session_failed(self)

    def _rollback_all_wp(self) -> None:
        for vma in self.parent.mm.vmas:
            self._rollback_vma_wp(vma)

    def _rollback_vma_wp(self, vma: Vma) -> None:
        for pmd, idx, _ in self.parent.mm.page_table.iter_pmd_slots(
            vma.start, vma.end
        ):
            if pmd.is_write_protected(idx):
                pmd.set_write_protected(idx, False)


class _VmaCopyCursor:
    """Iterates the PMD spans of one child VMA."""

    __slots__ = ("vma", "_base")

    def __init__(self, vma: Vma) -> None:
        self.vma = vma
        self._base = (vma.start // PTE_TABLE_SPAN) * PTE_TABLE_SPAN

    def peek(self) -> Optional[int]:
        """Current PMD span base, or ``None`` when exhausted."""
        if self._base >= self.vma.end:
            return None
        return self._base

    def advance(self) -> None:
        """Move to the next PMD span."""
        self._base += PTE_TABLE_SPAN


#: Size of the two-way pointer added to each VMA (§5.2: "the only memory
#: overhead of Async-fork comes from the added pointer (8B) in each VMA").
TWO_WAY_POINTER_BYTES = 8


def memory_overhead_bytes(n_vmas: int) -> int:
    """Async-fork's total memory overhead for ``n_vmas`` VMAs.

    §5.2's worked example: a 512 GB machine running 400 processes holds
    roughly 760,000 VMAs, so the overhead is ~6 MB — negligible.
    """
    if n_vmas < 0:
        raise ValueError("VMA count cannot be negative")
    return n_vmas * TWO_WAY_POINTER_BYTES
