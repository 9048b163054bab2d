"""Tests for the phase decomposition and breakdown report."""

from __future__ import annotations

import pytest

from repro.kernel.costs import DEFAULT_COSTS
from repro.obs.phases import (
    PhaseBreakdown,
    breakdown,
    child_copy_segments,
    fork_phase_segments,
    phase_of,
    trace_fork_phases,
)
from repro.obs.tracer import (
    ABORTED_SUFFIX,
    CAT_IO,
    CAT_KERNEL,
    CAT_PHASE,
    SpanRecord,
    Tracer,
)
from repro.sim.interrupts import InterruptRecorder

COUNTS = {"pgd": 1, "pud": 4, "pmd": 64, "pte": 32768}


class TestForkPhaseSegments:
    @pytest.mark.parametrize("method", ["default", "odf", "async"])
    def test_segments_tile_the_calibrated_fork_cost(self, method):
        segments = fork_phase_segments(method, COUNTS, DEFAULT_COSTS, 100)
        total = sum(e - s for _, s, e, _ in segments)
        assert total == DEFAULT_COSTS.fork_call_ns(method, COUNTS)

    @pytest.mark.parametrize("method", ["default", "odf", "async"])
    def test_segments_are_contiguous(self, method):
        segments = fork_phase_segments(method, COUNTS, DEFAULT_COSTS, 100)
        assert segments[0][1] == 100
        for (_, _, prev_end, _), (_, start, _, _) in zip(
            segments, segments[1:]
        ):
            assert start == prev_end

    def test_only_default_copies_ptes_in_the_call(self):
        names = {
            s[0]
            for s in fork_phase_segments(
                "default", COUNTS, DEFAULT_COSTS, 0
            )
        }
        assert "fork.pte_copy" in names
        for method in ("odf", "async"):
            names = {
                s[0]
                for s in fork_phase_segments(
                    method, COUNTS, DEFAULT_COSTS, 0
                )
            }
            assert "fork.pte_copy" not in names

    def test_trace_fork_phases_records(self):
        t = Tracer()
        trace_fork_phases(t.add, "async", COUNTS, DEFAULT_COSTS, 0)
        assert t.count("fork.") == len(
            fork_phase_segments("async", COUNTS, DEFAULT_COSTS, 0)
        )


class TestChildCopySegments:
    def test_segments_cover_the_window_exactly(self):
        segments = child_copy_segments(COUNTS, 1000, 901_000, DEFAULT_COSTS)
        assert [s[0] for s in segments] == [
            "child.pmd_copy",
            "child.pte_copy",
        ]
        assert segments[0][1] == 1000
        assert segments[0][2] == segments[1][1]
        assert segments[1][2] == 901_000

    def test_pte_share_dominates(self):
        segments = child_copy_segments(COUNTS, 0, 1_000_000, DEFAULT_COSTS)
        pmd = segments[0][2] - segments[0][1]
        pte = segments[1][2] - segments[1][1]
        assert pte > pmd

    def test_empty_window(self):
        assert child_copy_segments(COUNTS, 500, 500, DEFAULT_COSTS) == []


class TestPhaseOf:
    def test_known_prefixes(self):
        cases = {
            "fork.pmd_copy": "pmd_copy",
            "child.pte_copy": "pte_copy",
            "async:proactive-sync-pte": "proactive_sync",
            "async:vma-sync": "proactive_sync",
            "odf:table-cow": "table_cow",
            "tlb.flush_all": "tlb_shootdown",
            "persist.rdb": "persist",
            "disk.write": "persist",
            "queue.wait": "queue_wait",
        }
        for name, phase in cases.items():
            record = SpanRecord(name, CAT_PHASE, 0, 1)
            assert phase_of(record) == phase, name

    def test_unknown_is_none(self):
        assert phase_of(SpanRecord("kvs.bgsave", "kvs", 0, 1)) is None


class TestBreakdown:
    def make_trace(self) -> Tracer:
        t = Tracer()
        t.add("fork.pgd_copy", CAT_PHASE, 0, 10)
        t.add("fork.pud_copy", CAT_PHASE, 10, 40)
        t.add("async:proactive-sync", CAT_KERNEL, 50, 80)
        t.add(
            "async:proactive-sync" + ABORTED_SUFFIX, CAT_KERNEL, 90, 120
        )
        t.instant("queue.wait", CAT_PHASE, 0, total_ns=500)
        t.add("persist.rdb", CAT_IO, 100, 400)
        t.add("kvs.bgsave", "kvs", 0, 7)
        return t

    def test_phase_accounting(self):
        b = breakdown(self.make_trace())
        assert b.by_phase_ns["pgd_copy"] == 10
        assert b.by_phase_ns["pud_copy"] == 30
        assert b.by_phase_ns["proactive_sync"] == 30  # aborted excluded
        assert b.by_phase_count["proactive_sync"] == 1
        assert b.by_phase_ns["queue_wait"] == 500  # from the attribute
        assert b.by_phase_ns["persist"] == 300
        assert b.other_ns == 7

    def test_share_and_total(self):
        b = breakdown(self.make_trace())
        assert b.total_ns == 870
        assert b.share("persist") == pytest.approx(300 / 870)
        assert PhaseBreakdown().share("persist") == 0.0

    def test_report_renders(self):
        report = breakdown(self.make_trace()).report()
        assert "proactive_sync" in report
        assert "total" in report
        assert "unclassified" in report


class TestInterruptsFromTrace:
    def test_preserves_order_and_durations(self):
        t = Tracer()
        t.add("fork:async", CAT_KERNEL, 0, 100)
        t.add("fork.pgd_copy", CAT_PHASE, 0, 10)  # not kernel: skipped
        t.add("async:proactive-sync", CAT_KERNEL, 200, 217)
        recorder = InterruptRecorder.from_trace(t)
        assert recorder.reasons == ["fork:async", "async:proactive-sync"]
        assert recorder.durations_ns == [100, 17]

    def test_aborted_included_in_total_not_histogram(self):
        t = Tracer()
        t.add(
            "async:proactive-sync" + ABORTED_SUFFIX,
            CAT_KERNEL,
            0,
            20_000,
        )
        t.add("async:proactive-sync", CAT_KERNEL, 30_000, 50_000)
        recorder = InterruptRecorder.from_trace(t)
        assert recorder.total_ns() == 40_000  # Fig 20 counts both
        assert sum(recorder.bcc_histogram().values()) == 1  # Fig 11 one
