"""End-to-end tracing through the instrumented functional stack."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.async_fork import AsyncFork
from repro.errors import ForkError
from repro.faults import (
    SITE_CHILD_COPY,
    FaultPlan,
    FaultSpec,
)
from repro.kernel.forks.default import DefaultFork
from repro.kernel.forks.odf import OnDemandFork
from repro.kernel.task import Process
from repro.kvs.engine import KvEngine
from repro.kvs.supervisor import BackoffPolicy, SnapshotSupervisor
from repro.mem.frames import FrameAllocator
from repro.obs import tracer
from repro.obs.tracer import ABORTED_SUFFIX, CAT_KERNEL, Tracer
from repro.sim.interrupts import InterruptRecorder
from repro.units import MIB
from tests.faults.frame_faults import pte_table_failures


@pytest.fixture
def collector() -> Tracer:
    return tracer.install(Tracer())


class TestForkEngines:
    @pytest.mark.parametrize(
        "engine_cls,method",
        [(DefaultFork, "default"), (OnDemandFork, "odf"), (AsyncFork, "async")],
    )
    def test_fork_emits_kernel_and_phase_spans(
        self, parent, collector, engine_cls, method
    ):
        engine = engine_cls()
        engine.fork(parent)
        kernel = collector.by_name(f"fork:{method}")
        assert len(kernel) == 1
        # The phase spans tile the fork call exactly.
        assert collector.total_ns("fork.") == kernel[0].duration_ns
        assert collector.count("fork.fixed") == 1
        assert collector.count("fork.pgd_copy") == 1
        assert collector.count("fork.pud_copy") == 1
        assert collector.count("fork.pmd_copy") == 1

    def test_disabled_tracing_records_nothing(self, parent):
        assert not tracer.ACTIVE
        result = AsyncFork().fork(parent)
        result.session.run_to_completion()
        # Nothing to assert on a tracer — the guard means no records
        # exist anywhere; the fork itself must be unaffected.
        assert result.child.alive

    def test_async_child_copy_emits_pte_instants(self, parent, collector):
        result = AsyncFork().fork(parent)
        result.session.run_to_completion()
        assert collector.count("child.pte_copy") >= 1


class TestMemoryInstrumentation:
    def test_cow_write_emits_fault_and_copy(self, parent, collector):
        result = DefaultFork().fork(parent)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"dirty")
        assert collector.count("mm.fault") >= 1
        assert collector.count("mm.cow_copy") >= 1
        faults = collector.by_name("mm.fault")
        assert faults[0].attrs["write"] is True

    def test_tlb_flush_instants(self, collector):
        frames = FrameAllocator()
        process = Process(frames, name="p")
        vma = process.mm.mmap(2 * MIB)
        process.mm.write_memory(vma.start, b"x")
        process.mm.tlb.flush_all()
        assert collector.count("tlb.flush_all") == 1

    def test_pte_clone_instants_on_fork(self, parent, collector):
        DefaultFork().fork(parent)
        assert collector.count("pte.clone") >= 1


class TestKvsInstrumentation:
    def make_engine(self) -> KvEngine:
        engine = KvEngine(
            AsyncFork(), config=EngineConfig(value_size=64), name="obs"
        )
        for i in range(8):
            engine.set(f"k{i}", b"v" * 64)
        return engine

    def test_bgsave_lifecycle_spans(self, collector):
        engine = self.make_engine()
        job = engine.bgsave()
        job.result.session.run_to_completion()
        job.finish()
        assert collector.count("kvs.bgsave") == 1
        assert collector.count("kvs.snapshot.finish") == 1
        assert collector.count("kvs.snapshot.slice") == 0
        # The sliced child: one instant per slice, with its keys and
        # bytes (8 entries of 74 bytes; three fit in 256).
        job = engine.bgsave()
        job.result.session.run_to_completion()
        while not job.serialized:
            job.write_slice(256)
        report = job.finish()
        slices = [
            (r.attrs["keys"], r.attrs["bytes"])
            for r in collector.by_name("kvs.snapshot.slice")
        ]
        assert slices == [(3, 222), (3, 222), (2, 148)]
        assert report.file.size == 8 + 592
        assert collector.count("kvs.snapshot.finish") == 2

    def test_metrics_snapshot_names(self):
        engine = self.make_engine()
        snap = engine.metrics_snapshot()
        for name in (
            "tlb.hits",
            "tlb.misses",
            "frames.alloc",
            "mm.faults",
            "disk.bytes_written",
            "engine.commands",
        ):
            assert name in snap, name
        assert snap["engine.commands"] == 8
        assert list(snap) == sorted(snap)


class TestAbortedSections:
    def test_fork_oom_marks_section_aborted(self, parent, frames, collector):
        clock_recorder = InterruptRecorder()
        engine = AsyncFork()
        clock_recorder.observe(engine.clock)
        pte_table_failures(frames, 0)
        with pytest.raises(ForkError):
            engine.fork(parent)
        aborted = "fork:async" + ABORTED_SUFFIX
        assert aborted in clock_recorder.reasons
        assert collector.by_name(aborted)[0].cat == CAT_KERNEL
        # Fig 11 never counts it, however the episode itself remains on
        # the Fig 20 ledger (here with zero cost: the abort fired before
        # the calibrated advance).
        hist = clock_recorder.bcc_histogram(exclude_fork_call=False)
        assert sum(hist.values()) == 0
        assert clock_recorder.count(aborted) == 1

    def test_proactive_sync_oom_marks_section_aborted(
        self, parent, frames, collector
    ):
        engine = AsyncFork()
        recorder = InterruptRecorder().observe(engine.clock)
        result = engine.fork(parent)
        pte_table_failures(frames, 0)
        vma = next(iter(parent.mm.vmas))
        parent.mm.write_memory(vma.start, b"WRITE")
        frames.attach_fault_plan(None)
        assert result.session.failed
        aborted = "async:proactive-sync" + ABORTED_SUFFIX
        assert aborted in recorder.reasons
        assert sum(recorder.bcc_histogram().values()) == 0
        assert recorder.total_ns(aborted) > 0

    def test_child_sigkill_plan_keeps_histogram_clean(self, collector):
        engine = KvEngine(
            AsyncFork(),
            config=EngineConfig(value_size=64),
            name="sig",
        )
        for i in range(16):
            engine.set(f"k{i}", b"v" * 64)
        recorder = InterruptRecorder().observe(engine.clock)
        plan = FaultPlan(seed=1)
        plan.add(FaultSpec(site=SITE_CHILD_COPY, kind="sigkill", count=1))
        engine.attach_fault_plan(plan)
        supervisor = SnapshotSupervisor(
            engine, policy=BackoffPolicy(max_attempts=2), plan=plan
        )
        report = supervisor.save()
        assert report is not None  # the retry succeeded
        # The sigkilled child never aborts a *parent* kernel section, so
        # every recorded episode is a completed one and the histogram
        # (fork calls excluded as always) matches the episode count.
        assert not any(
            r.endswith(ABORTED_SUFFIX) for r in recorder.reasons
        )
        non_fork = [
            r for r in recorder.reasons if not r.startswith("fork")
        ]
        assert sum(recorder.bcc_histogram().values()) == len(non_fork)
        # The supervisor's own lifecycle shows up in the trace.
        assert collector.count("kvs.retry.backoff") == 1
