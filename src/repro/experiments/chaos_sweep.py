"""Chaos sweep: an open-loop workload under a seeded fault storm.

Every other experiment measures the *happy* path; this one exists to
prove the robustness claims.  For each seed it builds a
:class:`~repro.faults.plan.FaultPlan` storm across every injection
site, runs a write workload against an Async-fork engine supervised by
:class:`~repro.kvs.supervisor.SnapshotSupervisor`, reboots from the
(possibly corrupted) persistence artifacts, and then holds the run to
account:

* **every injected fault is classified** — surfaced to the client
  (partition, OOM, refused write), handled by the supervision layer
  (retry, watchdog kill, demotion), absorbed into latency (stall,
  RTT spike, short hang), or repaired at reboot (torn tail,
  generation fallback);
* **zero frame leaks** — after the engine's process exits, its
  allocator must be empty;
* **MMSAN + snapshot oracle on** — the runtime probes audit every
  fork, rollback, and completed copy (snapshot bytes are additionally
  compared byte-for-byte against the fork-point state);
* **bit-identical replay** — the same seed is run twice and the fault
  journal, final clock, and latency trace must match exactly.

One scripted seed drives the full degradation story on purpose:
async -> default fallback after consecutive §4.4 rollbacks, watchdog
kill of a hung child, MISCONF writes-refused after a disk-error burst,
then re-promotion — so the p99 cost of running degraded is always
measurable.
"""

from __future__ import annotations

import hashlib
import os

from repro.analysis import runtime
from repro.config import EngineConfig, SimulationProfile
from repro.core.async_fork import AsyncFork
from repro.errors import (
    NetworkPartitionError,
    OutOfMemoryError,
    WritesRefusedError,
)
from repro.experiments.registry import register
from repro.faults import (
    SITE_AOF_BYTES,
    SITE_CHILD_COPY,
    SITE_DISK_WRITE,
    SITE_RDB_BYTES,
    FaultPlan,
    FaultSpec,
    corrupt_aof_bytes,
    corrupt_snapshot,
)
from repro.kvs import aof as aof_mod
from repro.kvs import rdb, recovery
from repro.kvs.engine import KvEngine
from repro.kvs.store import PageWalk
from repro.kvs.supervisor import MODE_FALLBACK, SnapshotSupervisor
from repro.metrics.latency import percentile
from repro.metrics.report import ExperimentReport, Table
from repro.sim.network import NetworkLink
from repro.units import ns_to_ms, us

#: The seed whose plan is scripted (not a storm) so the sweep always
#: exercises fallback, watchdog, refusal, and re-promotion.
SCRIPTED_SEED = 0

#: Snapshot generations retained for the reboot phase.
GENERATIONS = 3


def _plan_for(seed: int, faults: int) -> FaultPlan:
    """The fault plan for one seed — scripted for ``SCRIPTED_SEED``."""
    if seed != SCRIPTED_SEED:
        return FaultPlan.storm(seed, faults=faults)
    plan = FaultPlan(seed)
    # Save 1: two consecutive child-copy kills -> demote to default
    # fork; the fallback attempt succeeds -> promote back.
    plan.add(FaultSpec(site=SITE_CHILD_COPY, kind="sigkill"))
    plan.add(FaultSpec(site=SITE_CHILD_COPY, kind="sigkill"))
    # Save 2: the child hangs far past the watchdog budget.
    plan.add(
        FaultSpec(
            site=SITE_CHILD_COPY, kind="hang", after=2, magnitude=1 << 20
        )
    )
    # Save 3: a disk-error burst long enough to exhaust every retry ->
    # MISCONF writes-refused until save 4 succeeds.
    plan.add(
        FaultSpec(site=SITE_DISK_WRITE, kind="io-error", after=2, count=4)
    )
    # Reboot: corrupt the newest snapshot generation and tear the AOF.
    plan.add(FaultSpec(site=SITE_RDB_BYTES, kind="bitrot", magnitude=2))
    plan.add(FaultSpec(site=SITE_AOF_BYTES, kind="torn-tail", magnitude=2))
    return plan


def _run_seed(seed: int, ops: int, faults: int, save_every: int) -> dict:
    """One complete chaos run; returns the evidence for the oracle."""
    plan = _plan_for(seed, faults)
    engine = KvEngine(
        fork_engine=AsyncFork(),
        config=EngineConfig(aof_enabled=True, value_size=256),
        name=f"chaos-{seed}",
    )
    link = NetworkLink(fault_plan=plan)
    surfaced = {"partition": 0, "oom": 0, "writes-refused": 0}

    def interleave(step: int) -> None:
        # Parent writes racing the child's copy: the proactive-sync
        # path the snapshot oracle exists to check.
        if step % 3 == 0:
            try:
                engine.set(f"hot{step % 7}".encode(), bytes(64))
            except OutOfMemoryError:
                surfaced["oom"] += 1
            except WritesRefusedError:
                surfaced["writes-refused"] += 1

    supervisor = SnapshotSupervisor(
        engine,
        watchdog_steps=512,
        fallback_after=2,
        plan=plan,
        on_child_step=interleave,
    )
    # A resident dataset so forks have page tables worth copying.
    for i in range(80):
        engine.set(f"base{i}".encode(), bytes(engine.config.value_size))
    engine.attach_fault_plan(plan)

    latencies: list[int] = []
    save_latency_by_mode: dict[str, list[int]] = {"async": [], "fallback": []}
    generations: list[rdb.SnapshotFile] = []
    byte_mismatches = 0
    clock = engine.clock
    interval_ns = us(20)  # 50k ops/s open loop

    for op in range(ops):
        op_ns = us(2)
        try:
            op_ns += link.round_trip_ns(payload=engine.config.value_size)
        except NetworkPartitionError:
            surfaced["partition"] += 1
            clock.advance(interval_ns)
            latencies.append(op_ns)
            continue
        try:
            engine.set(f"k{op % 200}".encode(), bytes(128 + op % 64))
        except OutOfMemoryError:
            surfaced["oom"] += 1
        except WritesRefusedError:
            surfaced["writes-refused"] += 1
        if op % save_every == save_every - 1:
            expected = rdb.dump(
                PageWalk(engine.process.mm, engine.store.table_snapshot())
            ).payload
            retries_before = supervisor.counters.retries
            promotions_before = supervisor.counters.promotions
            report = supervisor.save()
            # A demotion can happen mid-save, so the successful attempt
            # ran on the fallback engine whenever the save either ended
            # degraded or re-promoted on its way out.
            mode = (
                "fallback"
                if supervisor.mode == MODE_FALLBACK
                or supervisor.counters.promotions > promotions_before
                else "async"
            )
            if report is not None:
                if supervisor.counters.retries == retries_before:
                    # No refork happened, so the fork point is exactly
                    # the state at the call: bytes must match.
                    if report.file.payload != expected:
                        byte_mismatches += 1
                generations.insert(0, report.file)
                del generations[GENERATIONS:]
                op_ns += report.fork_call_ns
                save_latency_by_mode[mode].append(report.fork_call_ns)
        if op == ops // 2 and not engine.aof.rewriting:
            supervisor.rewrite()
        if op % 25 == 24:
            supervisor.fsync()
        clock.advance(interval_ns)
        latencies.append(op_ns)

    # One final supervised save so the reboot phase has a fresh
    # generation even under late storms.
    final = supervisor.save()
    if final is not None:
        generations.insert(0, final.file)
        del generations[GENERATIONS:]

    # -- reboot phase: damage the artifacts, then recover ---------------
    ledger = supervisor.ledger()
    reboot = {"generation_fallbacks": 0, "torn_repairs": 0}
    recovered_ok = True
    if generations:
        snaps = list(generations)
        spec = plan.fire(SITE_RDB_BYTES, stage="reboot")
        if spec is not None:
            snaps[0] = corrupt_snapshot(snaps[0], spec, plan.rng)
        booted = recovery.recover(snapshots=snaps)
        reboot["generation_fallbacks"] = (
            booted.last_recovery.generations_skipped
        )
        recovered_ok &= len(booted.store) > 0
        booted.process.exit()
    aof_data = aof_mod.encode(engine.aof)
    spec = plan.fire(SITE_AOF_BYTES, stage="reboot")
    if spec is not None:
        aof_data = corrupt_aof_bytes(aof_data, spec, plan.rng)
    booted = recovery.recover(aof_bytes=aof_data)
    if booted.last_recovery.aof_bytes_dropped:
        reboot["torn_repairs"] = 1
    recovered_ok &= len(booted.store) > 0
    booted.process.exit()

    # -- teardown + leak check ------------------------------------------
    ledger = supervisor.ledger()
    engine.attach_fault_plan(None)
    engine.process.exit()
    leaked = engine.frames.allocated

    return {
        "plan": plan,
        "ledger": ledger,
        "surfaced": surfaced,
        "reboot": reboot,
        "latencies": latencies,
        "save_latency_by_mode": save_latency_by_mode,
        "byte_mismatches": byte_mismatches,
        "leaked": leaked,
        "recovered_ok": recovered_ok,
        "final_clock": clock.now,
        "trace_digest": hashlib.blake2b(
            ",".join(map(str, latencies)).encode(), digest_size=16
        ).hexdigest(),
    }


def _classify(run: dict) -> tuple[int, int, bool]:
    """Match every injected fault to its observed outcome.

    Returns ``(events, classified, exact)`` where ``exact`` means every
    per-kind tally reconciled.
    """
    events: dict[str, int] = {}
    for event in run["plan"].events:
        events[event.kind] = events.get(event.kind, 0) + 1
    jf = run["ledger"].job_failures
    surfaced = run["surfaced"]
    fork_oom = sum(
        jf.get(r, 0) for r in ("parent-copy", "child-copy", "proactive-sync")
    )
    watchdog = jf.get("watchdog-timeout", 0)
    tallies = {
        "oom": surfaced["oom"] + fork_oom,
        "partition": surfaced["partition"],
        "sigkill": jf.get("injected:sigkill", 0),
        "io-error": jf.get("disk-write", 0),
        "fsync-error": jf.get("fsync", 0),
        "bitrot": run["reboot"]["generation_fallbacks"],
        "truncate": run["reboot"]["generation_fallbacks"],
        "torn-tail": events.get("torn-tail", 0) if run["recovered_ok"] else 0,
        # Absorbed kinds: the run completed with the magnitude soaked
        # into latency; a long hang instead shows up as a watchdog kill.
        "stall": events.get("stall", 0),
        "rtt-spike": events.get("rtt-spike", 0),
        "hang": events.get("hang", 0),
    }
    exact = True
    classified = 0
    for kind, count in events.items():
        if kind in ("bitrot", "truncate"):
            got = run["reboot"]["generation_fallbacks"]
        else:
            got = tallies.get(kind, 0)
        classified += min(count, got)
        if got != count:
            exact = False
    if events.get("hang", 0) < watchdog:
        exact = False
    total = sum(events.values())
    return total, classified, exact


def _checkers_enabled():
    """Turn the MMSAN/oracle runtime probes on for the sweep's duration."""

    class _Ctx:
        def __enter__(self):
            self.was_on = runtime.enabled()
            if not self.was_on:
                os.environ[runtime.ENV_FLAG] = "1"
            runtime.activate()
            return self

        def __exit__(self, *exc):
            if not self.was_on:
                os.environ.pop(runtime.ENV_FLAG, None)
                runtime.deactivate()
            return False

    return _Ctx()


@register("chaos", "Fault storm: recovery, degradation, and replay")
def run(profile: SimulationProfile) -> ExperimentReport:
    """N-seed chaos sweep with MMSAN + snapshot oracle enabled."""
    report = ExperimentReport(
        "chaos",
        "open-loop workload under seeded fault storms; every fault "
        "must be recovered or surfaced, with zero leaks and "
        "bit-identical replay",
    )
    seeds = {"full": 40, "quick": 20}.get(profile.name, 4)
    ops = {"full": 400, "quick": 240}.get(profile.name, 120)
    faults = 8
    save_every = max(30, ops // 5)

    totals = {"events": 0, "classified": 0}
    all_exact = True
    leaked_frames = 0
    mismatches = 0
    replay_identical = True
    fallbacks = promotions = watchdogs = refusals = 0
    recovered_all = True
    latencies_all: list[int] = []
    saves_async: list[int] = []
    saves_fallback: list[int] = []
    fault_rows: dict[str, int] = {}

    with _checkers_enabled():
        for seed in range(seeds):
            run1 = _run_seed(seed, ops, faults, save_every)
            run2 = _run_seed(seed, ops, faults, save_every)
            replay_identical &= (
                run1["plan"].fingerprint() == run2["plan"].fingerprint()
                and run1["final_clock"] == run2["final_clock"]
                and run1["trace_digest"] == run2["trace_digest"]
            )
            total, classified, exact = _classify(run1)
            totals["events"] += total
            totals["classified"] += classified
            all_exact &= exact
            leaked_frames += run1["leaked"] + run2["leaked"]
            mismatches += run1["byte_mismatches"]
            recovered_all &= run1["recovered_ok"]
            ledger = run1["ledger"]
            fallbacks += ledger.fallbacks
            promotions += ledger.promotions
            watchdogs += ledger.watchdog_kills
            refusals += ledger.refusal_episodes
            latencies_all.extend(run1["latencies"])
            saves_async.extend(run1["save_latency_by_mode"]["async"])
            saves_fallback.extend(run1["save_latency_by_mode"]["fallback"])
            for site, count in ledger.faults_by_site.items():
                fault_rows[site] = fault_rows.get(site, 0) + count

    storm = Table(
        "Chaos sweep — injected faults by site "
        f"({seeds} seeds x {ops} ops, replayed twice)",
        ["site", "faults"],
    )
    for site in sorted(fault_rows):
        storm.add_row(site, fault_rows[site])
    storm.add_row("total", totals["events"])
    report.add_table(storm)

    outcome = Table(
        "Supervision outcomes",
        ["counter", "value"],
    )
    outcome.add_row("classified faults", totals["classified"])
    outcome.add_row("async->default fallbacks", fallbacks)
    outcome.add_row("re-promotions", promotions)
    outcome.add_row("watchdog kills", watchdogs)
    outcome.add_row("writes-refused episodes", refusals)
    outcome.add_row("leaked frames", leaked_frames)
    report.add_table(outcome)

    cost = Table(
        "p99 latency cost of degradation (snapshot fork call, ms)",
        ["mode", "saves", "p50", "p99"],
    )
    for mode, samples in (
        ("async", saves_async),
        ("fallback (default fork)", saves_fallback),
    ):
        if samples:
            cost.add_row(
                mode,
                len(samples),
                ns_to_ms(percentile(samples, 50)),
                ns_to_ms(percentile(samples, 99)),
            )
    report.add_table(cost)

    report.check(
        "every injected fault recovered or surfaced",
        totals["classified"] == totals["events"] and all_exact,
    )
    report.check("zero frame leaks after teardown", leaked_frames == 0)
    report.check(
        "snapshot bytes equal fork-point fingerprint", mismatches == 0
    )
    report.check("reboot recovered a dataset in every run", recovered_all)
    report.check("replay from the same seed is bit-identical", replay_identical)
    report.check(
        "degradation story exercised (fallback + promotion + watchdog "
        "+ refusal)",
        fallbacks >= 1
        and promotions >= 1
        and watchdogs >= 1
        and refusals >= 1,
    )
    report.check(
        "fallback snapshots cost more than async at p99",
        bool(saves_fallback)
        and bool(saves_async)
        and percentile(saves_fallback, 99) > percentile(saves_async, 99),
    )
    return report
