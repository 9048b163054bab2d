"""The happens-before race detector: algebra, edges, engines, mutations.

Four layers of assurance:

* hypothesis checks the vector-clock algebra (join is a commutative,
  associative, idempotent monoid; increment strictly grows; joins only
  ever move clocks up);
* unit schedules drive the synchronization-edge semantics directly
  through the hooks (release->acquire, TLB rendezvous, fork/join
  edges, atomic exclusions);
* the seeded workloads prove clean default/ODF/async engines — and the
  §4.4 chaos storm — produce **zero** races;
* the three mutations (PR 1's two dropped TLB shootdowns, plus a
  dropped page lock) each flip their workload from clean to racy,
  which is the detector's reason to exist.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import hooks, race, workloads
from repro.analysis.race import RaceDetector, VectorClock
from repro.core.policy import FORK_METHODS
from repro.errors import AnalysisError, DataRaceError

REPO_ROOT = Path(__file__).resolve().parents[2]

clocks = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=30),
).map(VectorClock)


class TestVectorClockLaws:
    @given(a=clocks, b=clocks)
    def test_join_commutative(self, a, b):
        assert VectorClock.joined(a, b) == VectorClock.joined(b, a)

    @given(a=clocks, b=clocks, c=clocks)
    def test_join_associative(self, a, b, c):
        left = VectorClock.joined(VectorClock.joined(a, b), c)
        right = VectorClock.joined(a, VectorClock.joined(b, c))
        assert left == right

    @given(a=clocks)
    def test_join_idempotent(self, a):
        assert VectorClock.joined(a, a) == a

    @given(a=clocks)
    def test_join_identity(self, a):
        assert VectorClock.joined(a, VectorClock()) == a

    @given(a=clocks, b=clocks)
    def test_join_is_upper_bound(self, a, b):
        joined = VectorClock.joined(a, b)
        assert a <= joined and b <= joined

    @given(a=clocks, cid=st.integers(0, 5))
    def test_increment_strictly_grows_one_component(self, a, cid):
        before = a.copy()
        a.increment(cid)
        assert a.get(cid) == before.get(cid) + 1
        assert not a <= before
        assert before <= a
        for other in before.ticks:
            if other != cid:
                assert a.get(other) == before.get(other)

    @given(a=clocks, b=clocks)
    def test_le_antisymmetric_up_to_eq(self, a, b):
        if a <= b and b <= a:
            assert a == b

    @given(a=clocks)
    def test_copy_is_independent(self, a):
        snap = a.copy()
        a.increment(0)
        assert snap.get(0) == a.get(0) - 1


@pytest.fixture
def det():
    """An installed detector over clean hooks."""
    hooks.clear()
    detector = RaceDetector()
    detector.install()
    yield detector
    detector.uninstall()
    hooks.clear()


def _write(space="pte", key=1):
    hooks.notify_access("write", space, key)


class TestConflictSemantics:
    def test_unordered_writes_race(self, det):
        with hooks.context(("user", "a:1")):
            _write()
        with hooks.context(("user", "b:2")):
            _write()
        assert len(det.races) == 1
        report = det.races[0]
        assert report.space == "pte"
        assert {report.first.context, report.second.context} == {
            "user:a:1", "user:b:2"
        }

    def test_read_after_unordered_write_races(self, det):
        with hooks.context(("user", "a:1")):
            _write()
        with hooks.context(("user", "b:2")):
            hooks.notify_access("read", "pte", 1)
        assert len(det.races) == 1
        assert det.races[0].second.op == "read"

    def test_write_after_read_is_benign(self, det):
        # Reads are never recorded: PTE stores are atomic words, so a
        # read racing a later write observes one or the other value.
        with hooks.context(("user", "a:1")):
            hooks.notify_access("read", "pte", 1)
        with hooks.context(("user", "b:2")):
            _write()
        assert det.races == []

    def test_atomic_ops_never_conflict(self, det):
        with hooks.context(("user", "a:1")):
            hooks.notify_access("atomic", "mapcount", 5)
        with hooks.context(("user", "b:2")):
            hooks.notify_access("atomic", "mapcount", 5)
            hooks.notify_access("write", "mapcount", 5)
        assert det.races == []

    def test_same_context_never_races_itself(self, det):
        with hooks.context(("user", "a:1")):
            _write()
            _write()
            hooks.notify_access("read", "pte", 1)
        assert det.races == []

    def test_distinct_keys_are_independent(self, det):
        with hooks.context(("user", "a:1")):
            _write(key=1)
        with hooks.context(("user", "b:2")):
            _write(key=2)
        assert det.races == []

    def test_suppressed_reads_are_invisible(self, det):
        with hooks.context(("user", "a:1")):
            _write()
        with hooks.context(("user", "b:2")):
            with hooks.suppressed():
                hooks.notify_access("read", "pte", 1)
        assert det.races == []

    def test_assert_clean_raises_with_reports(self, det):
        with hooks.context(("user", "a:1")):
            _write()
        with hooks.context(("user", "b:2")):
            _write()
        with pytest.raises(DataRaceError) as exc_info:
            det.assert_clean()
        assert exc_info.value.races == det.races


class TestSyncEdges:
    def test_release_acquire_orders(self, det):
        with hooks.context(("user", "a:1")):
            hooks.notify_lock("acquire", hooks.PAGE_LOCK, 9)
            _write()
            hooks.notify_lock("release", hooks.PAGE_LOCK, 9)
        with hooks.context(("user", "b:2")):
            hooks.notify_lock("acquire", hooks.PAGE_LOCK, 9)
            _write()
            hooks.notify_lock("release", hooks.PAGE_LOCK, 9)
        assert det.races == []

    def test_different_lock_key_does_not_order(self, det):
        with hooks.context(("user", "a:1")):
            hooks.notify_lock("acquire", hooks.PAGE_LOCK, 9)
            _write()
            hooks.notify_lock("release", hooks.PAGE_LOCK, 9)
        with hooks.context(("user", "b:2")):
            hooks.notify_lock("acquire", hooks.PAGE_LOCK, 10)
            _write()
            hooks.notify_lock("release", hooks.PAGE_LOCK, 10)
        assert len(det.races) == 1
        # Different keys mean no common lock connects the accesses.
        assert "no release→acquire" in det.races[0].missing_edge

    def test_tlb_flush_is_a_rendezvous(self, det):
        # The shootdown IPI + ack orders initiator and owner both ways:
        # the copier sees the owner's earlier write...
        with hooks.context(("user", "a:1")):
            _write()
        with hooks.context(("copy", "b:2", 0)):
            hooks.notify_edge("tlb-flush", None, "a:1")
            _write()
            # ...and a second shootdown publishes the copier's write
            # back to the owner before it reads.
            hooks.notify_edge("tlb-flush", None, "a:1")
        with hooks.context(("user", "a:1")):
            hooks.notify_access("read", "pte", 1)
        assert det.races == []

    def test_rendezvous_orders_past_not_future(self, det):
        # A shootdown *before* the copier's write does not license the
        # owner to read it afterwards unordered.
        with hooks.context(("copy", "b:2", 0)):
            hooks.notify_edge("tlb-flush", None, "a:1")
            _write()
        with hooks.context(("user", "a:1")):
            hooks.notify_access("read", "pte", 1)
        assert len(det.races) == 1

    @given(writes_before=st.integers(1, 4), writes_after=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_tlb_ack_ordering_property(self, writes_before, writes_after):
        hooks.clear()
        detector = RaceDetector()
        detector.install()
        try:
            with hooks.context(("user", "a:1")):
                for _ in range(writes_before):
                    _write()
            with hooks.context(("copy", "b:2", 0)):
                hooks.notify_edge("tlb-flush", None, "a:1")
                for _ in range(writes_after):
                    _write()
            assert detector.races == []
        finally:
            detector.uninstall()
            hooks.clear()

    def test_missing_tlb_flush_is_named_in_hint(self, det):
        # A copy thread's remap racing the owner's later access: the
        # hint names the shootdown of the victim that would fix it.
        with hooks.context(("copy", "b:2", 0)):
            _write()
        with hooks.context(("user", "a:1")):
            _write()
        assert len(det.races) == 1
        assert "TLB shootdown" in det.races[0].missing_edge
        assert "'a:1'" in det.races[0].missing_edge

    def test_fork_edge_orders_parent_prefix(self, det):
        with hooks.context(("user", "parent:1")):
            _write()
            hooks.notify_edge("fork", None, ("user", "child:2"))
        with hooks.context(("user", "child:2")):
            hooks.notify_access("read", "pte", 1)
        assert det.races == []

    def test_join_edge_orders_worker_into_joiner(self, det):
        with hooks.context(("copy", "child:2", 0)):
            _write()
        hooks.notify_edge("join", ("copy", "child:2", 0), ("user", "child:2"))
        with hooks.context(("user", "child:2")):
            _write()
        assert det.races == []


class TestCleanWorkloads:
    @pytest.mark.parametrize("engine", FORK_METHODS)
    def test_engine_is_race_free(self, engine):
        hooks.clear()
        with race.detecting() as detector:
            workloads.run_engine(engine)
        assert detector.races == []
        # The detector actually watched the substrate, not silence.
        assert detector.event_counts.get("pte", 0) > 100

    def test_chaos_storm_is_race_free(self):
        hooks.clear()
        with race.detecting() as detector:
            outcomes = workloads.run_chaos()
        assert detector.races == []
        # The storm must actually exercise the §4.4 failure paths.
        assert any(o != "completed" for o in outcomes), outcomes

    def test_page_migration_is_race_free(self):
        hooks.clear()
        with race.detecting() as detector:
            workloads.run_migration()
        assert detector.races == []


def _run_mutated(workload):
    """Run a mutated workload, tolerating armed sanitizers.

    Under ``REPRO_MMSAN=1`` the supervisor's probes may catch the
    injected bug and abort the workload mid-flight — fine, as long as
    the race detector has already seen the race by then.
    """
    try:
        workload()
    except AnalysisError:
        pass


class TestMutations:
    """Each re-introduced bug must flip its workload from clean to racy."""

    def test_dropped_async_shootdown_races(self):
        hooks.clear()
        with workloads.dropped_async_shootdown():
            with race.detecting() as detector:
                _run_mutated(lambda: workloads.run_engine("async"))
        assert detector.races, "M1 went undetected"
        report = detector.races[0]
        # The diagnosis points at the missing shootdown of the parent.
        assert "TLB shootdown" in report.missing_edge
        assert any("copy:" in s.context or "user:" in s.context
                   for s in (report.first, report.second))

    def test_dropped_odf_shootdown_races(self):
        hooks.clear()
        with workloads.dropped_odf_shootdown():
            with race.detecting() as detector:
                _run_mutated(lambda: workloads.run_engine("odf"))
        assert detector.races, "M2 went undetected"

    def test_dropped_page_lock_races(self):
        hooks.clear()
        with race.detecting() as detector:
            workloads.run_migration()
        assert detector.races == []  # sanity: clean under the lock
        hooks.clear()
        with workloads.dropped_page_lock():
            with race.detecting() as detector:
                _run_mutated(workloads.run_migration)
        assert detector.races, "M3 went undetected"

    def test_mutation_registry_is_complete(self):
        assert set(workloads.MUTATIONS) == {
            "async-shootdown", "odf-shootdown", "page-lock"
        }
        for name, (patch, workload) in workloads.MUTATIONS.items():
            hooks.clear()
            with patch():
                with race.detecting() as detector:
                    _run_mutated(workload)
            assert detector.races, f"mutation {name} went undetected"

    def test_reports_carry_stacks_and_locks(self):
        hooks.clear()
        with workloads.dropped_page_lock():
            with race.detecting() as detector:
                _run_mutated(workloads.run_migration)
        report = detector.races[0]
        payload = report.to_dict()
        assert payload["first"]["stack"], "no stack captured"
        for frame in payload["first"]["stack"]:
            path, _, line = frame.rpartition(":")
            assert line.isdigit() and not path.startswith("/")


class TestDeterminism:
    def _run(self, *extra):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "analyze.py"),
                "--check", "races", "--format", "json", *extra,
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_reports_byte_identical_across_runs(self):
        first = self._run("--seed", "11")
        second = self._run("--seed", "11")
        assert first == second
        report = json.loads(first)
        assert report["seed"] == 11
        (check,) = report["checks"]
        assert check["checker"] == "races"
        assert check["findings"] == []
