"""Opt-in wiring of the checkers into the fork engines.

Enable with ``REPRO_MMSAN=1`` in the environment (or the pytest
``--mmsan`` flag, which sets it).  When enabled:

* every :class:`~repro.mem.address_space.AddressSpace` is tracked by a
  per-allocator :class:`~repro.analysis.mmsan.Mmsan`;
* every fork (default, ODF, async) gets a :class:`ForkProbe` that
  captures a :class:`~repro.analysis.oracle.SnapshotOracle` fingerprint
  at fork-call time and audits MMSAN + oracle at the natural barriers —
  fork return, async-session completion, and the §4.4 failure paths
  after rollback;
* a non-raising :class:`~repro.analysis.lockdep.LockDep` witnesses all
  lock traffic (``supervisor.lockdep``), reset between tests.

When disabled, :func:`fork_probe` returns a shared no-op probe and the
engines pay one environment lookup per fork.
"""

from __future__ import annotations

import os
import weakref
from typing import Optional

from repro.analysis import hooks
from repro.analysis.lockdep import LockDep
from repro.analysis.mmsan import Mmsan
from repro.analysis.oracle import SnapshotOracle

ENV_FLAG = "REPRO_MMSAN"

_supervisor: Optional["Supervisor"] = None


def enabled() -> bool:
    """Whether the runtime checkers are requested via the environment."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class Supervisor:
    """Process-wide checker state: one MMSAN per allocator + lockdep."""

    def __init__(self) -> None:
        self.lockdep = LockDep(raise_on_violation=False)
        self._mmsans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._started = False

    def start(self) -> None:
        # Membership-based so a test-scoped ``hooks.clear()`` (the
        # analysis suites wipe the registries for isolation) can be
        # undone by calling start() again.
        self.lockdep.install()
        if self._on_mm_created not in hooks.MM_HOOKS:
            hooks.MM_HOOKS.append(self._on_mm_created)
        self._started = True

    def stop(self) -> None:
        if not self._started:
            return
        self.lockdep.uninstall()
        if self._on_mm_created in hooks.MM_HOOKS:
            hooks.MM_HOOKS.remove(self._on_mm_created)
        self._started = False

    def _on_mm_created(self, mm) -> None:
        self.mmsan_for(mm.frames).track(mm)

    def mmsan_for(self, frames) -> Mmsan:
        """The MMSAN instance auditing one frame allocator's mms."""
        mmsan = self._mmsans.get(frames)
        if mmsan is None:
            mmsan = Mmsan(frames)
            self._mmsans[frames] = mmsan
        return mmsan

    def reset_transient(self) -> None:
        """Drop cross-test state (lockdep stacks/edges)."""
        self.lockdep.reset()


def activate() -> Supervisor:
    """Install the supervisor (idempotent); returns it."""
    global _supervisor
    if _supervisor is None:
        _supervisor = Supervisor()
    _supervisor.start()
    return _supervisor


def deactivate() -> None:
    """Remove the supervisor and all its hooks."""
    global _supervisor
    if _supervisor is not None:
        _supervisor.stop()
        _supervisor = None


def current() -> Optional[Supervisor]:
    """The active supervisor, if any."""
    return _supervisor


class _NullProbe:
    """No-op probe handed out while the checkers are disabled."""

    def completed(self, result) -> None:
        pass

    def async_started(self, session) -> None:
        pass

    def session_completed(self, session) -> None:
        pass

    def session_failed(self, session) -> None:
        pass

    def failed(self) -> None:
        pass


NULL_PROBE = _NullProbe()


class ForkProbe:
    """Checker attachment for one fork operation."""

    def __init__(self, supervisor: Supervisor, engine, parent) -> None:
        self.engine = engine
        self.parent = parent
        self.mmsan = supervisor.mmsan_for(parent.mm.frames)
        self.mmsan.track(parent.mm)
        self.oracle = SnapshotOracle.capture(parent.mm)

    def _markers(self) -> bool:
        # The copied-marker state machine only governs async-fork; a
        # finished ODF session legitimately leaves markers for the
        # fault handler to clear lazily.
        return self.engine.name == "async"

    # -- synchronous engines (default, ODF) ------------------------------

    def completed(self, result) -> None:
        """Fork returned: the child's snapshot must already be complete."""
        self.mmsan.track(result.child.mm)
        self.oracle.assert_consistent(result.child.mm)
        self.mmsan.assert_clean(pmd_markers=self._markers())

    # -- async-fork ------------------------------------------------------

    def async_started(self, session) -> None:
        """The parent's (fast) fork call returned; copying continues."""
        self.mmsan.track(session.child.mm)
        session._analysis_probe = self
        self.oracle.assert_consistent(
            session.child.mm, pending_parent=self.parent.mm
        )
        self.mmsan.assert_clean(pmd_markers=True)

    def session_completed(self, session) -> None:
        """The child finished copying: full consistency is due now."""
        child_mm = session.child.mm
        alive = child_mm.frames.is_allocated(
            child_mm.page_table.pgd.page.frame
        )
        if alive:
            self.oracle.assert_consistent(child_mm)
        self.mmsan.assert_clean(pmd_markers=True)

    def session_failed(self, session) -> None:
        """§4.4 child-copy/proactive-sync failure: audit the rollback."""
        self.mmsan.assert_clean(pmd_markers=True)

    def failed(self) -> None:
        """§4.4 parent-copy failure: parent must be fully restored."""
        self.mmsan.assert_clean(pmd_markers=self._markers())


def fork_probe(engine, parent):
    """Probe for one fork call; a no-op unless the checkers are enabled."""
    if not enabled():
        return NULL_PROBE
    supervisor = activate()
    return ForkProbe(supervisor, engine, parent)
