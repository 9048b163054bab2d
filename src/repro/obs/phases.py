"""Per-fork phase accounting over a trace.

The paper's decomposition (Figures 3 and 22): where does a fork call —
and the snapshot period around it — spend its time?  This module (a)
decomposes a fork call's calibrated cost into sequential ``fork.*``
phase spans (pgd/pud/pmd/pte copy) from the same
:class:`~repro.kernel.costs.CostModel` terms the engines charge, (b)
classifies any trace's spans into phases, and (c) renders the
phase-breakdown report the ``repro-trace`` CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs.tracer import (
    CAT_PHASE,
    SpanRecord,
    Tracer,
)

#: Phase keys of the breakdown report, in reporting order.
PHASE_KEYS = (
    "fork_fixed",
    "pgd_copy",
    "pud_copy",
    "pmd_copy",
    "pte_copy",
    "proactive_sync",
    "table_cow",
    "tlb_shootdown",
    "queue_wait",
    "persist",
)

#: Span-name prefix -> phase key, longest prefix wins.
_PREFIX_PHASES = (
    ("fork.fixed", "fork_fixed"),
    ("fork.pgd_copy", "pgd_copy"),
    ("fork.pud_copy", "pud_copy"),
    ("fork.pmd_copy", "pmd_copy"),
    ("fork.pte_copy", "pte_copy"),
    ("child.pmd_copy", "pmd_copy"),
    ("child.pte_copy", "pte_copy"),
    ("async:proactive-sync", "proactive_sync"),
    ("async:vma-sync", "proactive_sync"),
    ("async:prev-child-sync", "proactive_sync"),
    ("odf:table-cow", "table_cow"),
    ("tlb.", "tlb_shootdown"),
    ("queue.wait", "queue_wait"),
    ("persist.", "persist"),
    ("disk.write", "persist"),
)


def phase_of(record: SpanRecord) -> str | None:
    """The phase key a span accounts under, or ``None``."""
    for prefix, phase in _PREFIX_PHASES:
        if record.name.startswith(prefix):
            return phase
    return None


# ---------------------------------------------------------------------------
# fork-call decomposition
# ---------------------------------------------------------------------------


def fork_phase_segments(
    method: str, counts: dict[str, int], costs, start_ns: int
) -> list[tuple[str, int, int, dict]]:
    """Sequential phase spans of one fork call starting at ``start_ns``.

    Lays :meth:`~repro.kernel.costs.CostModel.fork_call_terms` end to
    end, so the segments' total is ``costs.fork_call_ns(method, counts)``
    and the phase spans tile the fork's kernel section.
    """
    segments: list[tuple[str, int, int, dict]] = []
    t = int(start_ns)
    for name, ns, attrs in costs.fork_call_terms(method, counts):
        segments.append((name, t, t + ns, attrs))
        t += ns
    return segments


def child_copy_segments(
    counts: dict[str, int], start_ns: int, end_ns: int, costs
) -> list[tuple[str, int, int, dict]]:
    """Split Async-fork's child copy window into PMD and PTE shares, in
    proportion to :meth:`~repro.kernel.costs.CostModel.child_copy_terms`."""
    window = int(end_ns) - int(start_ns)
    if window <= 0:
        return []
    (pmd_name, pmd_work, pmd_attrs), (pte_name, pte_work, pte_attrs) = (
        costs.child_copy_terms(counts)
    )
    serial = pmd_work + pte_work
    if serial <= 0:
        return []
    split = int(start_ns) + window * pmd_work // serial
    return [
        (pmd_name, int(start_ns), split, pmd_attrs),
        (pte_name, split, int(end_ns), pte_attrs),
    ]


def trace_fork_phases(
    sink: Callable[..., None],
    method: str,
    counts: dict[str, int],
    costs,
    start_ns: int,
) -> None:
    """Record the fork call's phase spans through ``sink``: one
    tracer's ``add``, or :func:`repro.obs.tracer.emit` for all of them."""
    for name, s, e, attrs in fork_phase_segments(
        method, counts, costs, start_ns
    ):
        sink(name, CAT_PHASE, s, e, **attrs)


# ---------------------------------------------------------------------------
# aggregation / report
# ---------------------------------------------------------------------------


@dataclass
class PhaseBreakdown:
    """Time per phase over one trace."""

    by_phase_ns: dict[str, int] = field(default_factory=dict)
    by_phase_count: dict[str, int] = field(default_factory=dict)
    other_ns: int = 0

    @property
    def total_ns(self) -> int:
        """All accounted nanoseconds (classified phases only)."""
        return sum(self.by_phase_ns.values())

    def share(self, phase: str) -> float:
        """Fraction of accounted time in one phase."""
        total = self.total_ns
        if total == 0:
            return 0.0
        return self.by_phase_ns.get(phase, 0) / total

    def report(self) -> str:
        """The per-fork phase-breakdown table, aligned for a terminal."""
        lines = ["phase            count        time_ms    share"]
        total = self.total_ns
        for phase in PHASE_KEYS:
            ns = self.by_phase_ns.get(phase, 0)
            count = self.by_phase_count.get(phase, 0)
            if count == 0 and ns == 0:
                continue
            share = ns / total if total else 0.0
            lines.append(
                f"{phase:<16s} {count:>5d} {ns / 1e6:>14.3f} "
                f"{share:>7.1%}"
            )
        lines.append(
            f"{'total':<16s} {sum(self.by_phase_count.values()):>5d} "
            f"{total / 1e6:>14.3f} {'100.0%':>8s}"
        )
        if self.other_ns:
            lines.append(
                f"(unclassified span time: {self.other_ns / 1e6:.3f} ms)"
            )
        return "\n".join(lines)


def breakdown(tracer: Tracer) -> PhaseBreakdown:
    """Classify a trace's spans into the phase accounting.

    Queue wait is carried as a ``total_ns`` attribute on zero-duration
    ``queue.wait`` markers (per-query wait spans would dwarf the trace),
    so those account their attribute, not their (zero) duration.
    Aborted kernel sections are excluded — they never completed the
    work their phase names.
    """
    result = PhaseBreakdown()
    for record in tracer.records:
        if record.aborted:
            continue
        phase = phase_of(record)
        duration = record.duration_ns
        if record.name.startswith("queue.wait"):
            duration = int(record.attrs.get("total_ns", 0))
        if phase is None:
            result.other_ns += duration
            continue
        result.by_phase_ns[phase] = (
            result.by_phase_ns.get(phase, 0) + duration
        )
        result.by_phase_count[phase] = (
            result.by_phase_count.get(phase, 0) + 1
        )
    return result
