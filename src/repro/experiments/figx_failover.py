"""Replication and failover under each fork engine (extension figure).

Two questions the paper's standalone measurements leave open, answered
on the replication layer:

1. **What does attaching a replica cost live traffic?**  A full sync
   starts with the BGSAVE fork, so the serving thread stalls for the
   page-table copy while the open-loop stream keeps arriving.  Phase
   one attaches a replica mid-run per fork method and splits p99 into
   the sync window vs quiet time — the paper's latency-spike story,
   restated as "adding a replica is an incident under the default
   fork and a non-event under Async-fork".

2. **Does failover lose data, and how fast is it?**  Phase two runs a
   seeded chaos drill per method: brief stream partition (heals with a
   partial resync — no second fork), master SIGKILL mid-full-sync,
   quorum detection, best-offset election, torn-AOF repair at
   promotion, peer resync against the new master, and a slot-map
   repair check.  The drill asserts zero loss of WAIT-acked writes
   and replays byte-identically per seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.policy import FORK_METHODS, make_fork_engine
from repro.config import EngineConfig, SimulationProfile
from repro.errors import MasterDownError
from repro.experiments.registry import register
from repro.faults.plan import (
    SITE_AOF_BYTES,
    SITE_MASTER_CRON,
    SITE_REPL_SEND,
    FaultPlan,
    FaultSpec,
)
from repro.kernel.clock import Clock
from repro.kvs.engine import KvEngine
from repro.kvs.supervisor import SnapshotSupervisor
from repro.experiments.parallel import parallel_map
from repro.metrics.latency import percentile
from repro.metrics.report import ExperimentReport, Table
from repro.repl import (
    FailoverCoordinator,
    FailureDetector,
    ReplLink,
    ReplicaNode,
    ReplicationMaster,
)
from repro.units import us
from repro.workload.replication import (
    ReplWorkloadSpec,
    build_repl_workload,
    prepopulate_master,
    run_replicated_workload,
)

#: Dataset of the chaos drill (small: the drill is about protocol, not
#: fork cost — phase one owns the timing story).
DRILL_KEYS = 300
DRILL_VALUE = b"\xab" * 256
#: Writes acknowledged through WAIT before the master is killed.
DRILL_ACKED_WRITES = 24
#: Drill pacing: one simulated tick per loop iteration.
TICK_NS = us(20)


def _new_master(
    method: str, seed: int, plan=None
) -> tuple[ReplicationMaster, Clock]:
    clock = Clock()
    engine = KvEngine(
        fork_engine=make_fork_engine(method, clock),
        config=EngineConfig(aof_enabled=True),
    )
    supervisor = SnapshotSupervisor(engine, plan=plan)
    master = ReplicationMaster(
        engine,
        supervisor=supervisor,
        seed=seed,
        heartbeat_interval_ns=us(50),
        plan=plan,
    )
    return master, clock


# -- phase one: live traffic during a full sync -------------------------


def _live_sync_run(profile: SimulationProfile, method: str, seed: int):
    count = min(20_000, max(2_000, profile.query_count // 60))
    # The dataset, not the query count, sets the fork cost — keep it
    # large enough (~80 MB) that the default fork's page-table copy is
    # a visible stall against the ~0.1 ms quiet p99.
    spec = ReplWorkloadSpec(
        count=count,
        n_keys=20_000,
        rate_per_sec=float(profile.set_rate_per_sec),
        value_size=4_096,
        seed=seed,
    )
    master, clock = _new_master(method, seed)
    workload = build_repl_workload(spec)
    prepopulate_master(master, workload)
    replica = ReplicaNode("replica0", clock)
    result = run_replicated_workload(
        master,
        workload,
        sync_replica=replica,
        sync_link=ReplLink(name="replica0"),
        sync_at=count // 4,
    )
    replica.close()
    master.engine.process.exit()
    return result


def _live_sync_task(task):
    """``parallel_map`` adapter (module-level, picklable)."""
    return _live_sync_run(*task)


# -- phase two: the seeded failover drill -------------------------------


def _drill_plan(seed: int) -> FaultPlan:
    """The drill's chaos schedule (identical shape for every method)."""
    return FaultPlan(
        seed,
        [
            # Brief partition of replica1's link: the master drops the
            # connection, writes keep flowing to replica0, and the later
            # PSYNC must answer +CONTINUE (the partition has healed).
            FaultSpec(
                site=SITE_REPL_SEND,
                kind="partition",
                after=2,
                count=1,
                match=lambda d: d.get("replica") == "replica1",
            ),
            # The master dies on its 6th cron tick — after replica2's
            # full-sync fork, before the child finishes: mid-BGSAVE.
            FaultSpec(site=SITE_MASTER_CRON, kind="sigkill", after=5),
            # The winner's AOF tail is torn at promotion time.
            FaultSpec(
                site=SITE_AOF_BYTES,
                kind="torn-tail",
                magnitude=2,
                match=lambda d: d.get("stage") == "promotion",
            ),
        ],
    )


def _run_drill(method: str, seed: int) -> dict:
    plan = _drill_plan(seed)
    master, clock = _new_master(method, seed, plan=plan)
    for i in range(DRILL_KEYS):
        master.engine.set(b"base:%06d" % i, DRILL_VALUE)

    replicas = {}
    for name in ("replica0", "replica1"):
        node = ReplicaNode(name, clock, stale_after_ns=us(100))
        link = ReplLink(name=name, fault_plan=plan)
        master.add_replica(node, link)
        master.full_sync(master.sessions[name])
        replicas[name] = node
    master.min_replicas_to_write = 1

    # WAIT-acked writes: these must survive the failover, bit for bit.
    acked = {}
    for i in range(DRILL_ACKED_WRITES):
        key, value = b"acked:%04d" % i, b"A%06d" % (seed * 1_000 + i)
        master.engine.set(key, value)
        if master.wait(2) >= 1:
            acked[key] = value
    # The partition spec has cut replica1's stream by now; writes keep
    # flowing to replica0 while replica1 falls behind.
    partition_healed = not master.sessions["replica1"].connected
    full_syncs_before = master.full_syncs
    kind, streamed = master.psync("replica1")
    partial_ok = (
        kind == "CONTINUE"
        and master.full_syncs == full_syncs_before
        and streamed > 0
    )

    # Attach a fresh third replica; the master will die mid-sync.
    replica2 = ReplicaNode("replica2", clock, stale_after_ns=us(100))
    master.add_replica(replica2, ReplLink(name="replica2", fault_plan=plan))
    detector = FailureDetector(
        list(replicas.values()), timeout_ns=us(200), quorum=2
    )
    coordinator = FailoverCoordinator(
        master, detector, seed=seed, plan=plan
    )
    stale_flagged = 0
    write_refused_while_down = False
    report = None
    for tick in range(600):
        clock.advance(TICK_NS)
        master.cron()
        if tick == 4:
            master.begin_full_sync(master.sessions["replica2"])
        elif tick >= 5:
            session = master.sessions["replica2"]
            if session.sync_job is not None:
                master.step_full_sync(session)
        if not master.alive:
            _, stale = replicas["replica0"].get(b"base:000000", clock.now)
            stale_flagged += int(stale)
            try:
                master.engine.set(b"orphan", b"x")
            except MasterDownError:
                write_refused_while_down = True
        report = coordinator.tick(clock.now)
        if report is not None:
            break
    assert report is not None, "drill never promoted a replica"
    promoted = coordinator.promoted
    assert promoted is not None

    acked_lost = sum(
        1
        for key, value in acked.items()
        if promoted.engine.store.get(key) != value
    )
    promoted.engine.set(b"post-failover", b"ok")
    datasum = hashlib.blake2b(digest_size=12)
    for key in sorted(promoted.engine.store.keys()):
        datasum.update(key)
        datasum.update(promoted.engine.store.get(key) or b"")
    digest = hashlib.blake2b(
        "|".join(
            [
                plan.fingerprint(),
                report.promoted,
                str(report.elected_offset),
                str(report.recovery_ns),
                str(promoted.backlog.master_offset),
                ",".join(
                    f"{k}={v}" for k, v in sorted(report.peer_resyncs.items())
                ),
                datasum.hexdigest(),
            ]
        ).encode(),
        digest_size=16,
    ).hexdigest()

    outcome = {
        "promoted": report.promoted,
        "recovery_ns": report.recovery_ns,
        "acked_total": len(acked),
        "acked_lost": acked_lost,
        "partition_healed": partition_healed,
        "partial_ok": partial_ok,
        "stale_flagged": stale_flagged,
        "write_refused_while_down": write_refused_while_down,
        "aof_bytes_dropped": report.aof_bytes_dropped,
        "peer_resyncs": dict(report.peer_resyncs),
        "digest": digest,
    }
    for node in replicas.values():
        node.close()
    replica2.close()
    if master.engine.process.alive:
        master.engine.process.exit()
    return outcome


def _drill_task(task):
    """Run one drill plus its replay; report whether they matched."""
    method, seed = task
    outcome = _run_drill(method, seed)
    replay = _run_drill(method, seed)
    return outcome, outcome["digest"] == replay["digest"]


@register(
    "figx-failover",
    "Replication & failover: sync spikes, recovery, acked-write safety",
)
def run(profile: SimulationProfile) -> ExperimentReport:
    """Sweep fork method over live-sync latency and failover drills."""
    report = ExperimentReport(
        "figx-failover",
        "replica full-sync latency impact and failover drill outcomes "
        "per fork engine",
    )
    sync_table = Table(
        "Live traffic while a replica full-syncs (p99 inside vs outside "
        "the sync window)",
        ["method", "p99 in-sync ms", "p99 quiet ms", "spike x",
         "fork stall ms", "ship ms"],
    )
    # Each (method, seed) run is seeded independently — fan the grid
    # out over the ``--jobs`` workers, aggregate in grid order.
    sync_grid = [
        (profile, method, seed)
        for method in FORK_METHODS
        for seed in range(profile.repeats)
    ]
    sync_runs: dict[str, list] = {}
    for (_, method, _), result in zip(
        sync_grid, parallel_map(_live_sync_task, sync_grid)
    ):
        sync_runs.setdefault(method, []).append(result)
    p99_in = {}
    p99_out = {}
    for method in FORK_METHODS:
        inside_all, outside_all, stalls, ships = [], [], [], []
        for result in sync_runs[method]:
            inside, outside = result.split_by_window()
            inside_all.extend(inside.tolist())
            outside_all.extend(outside.tolist())
            stalls.append(result.fork_stall_ns)
            if result.sync_report is not None:
                ships.append(result.sync_report.ship_ns)
        # The sync window always opens in this experiment, but guard the
        # percentile anyway — it raises on empty samples now.
        p99_in[method] = (
            percentile(np.asarray(inside_all), 99.0) / 1e6
            if inside_all
            else float("nan")
        )
        p99_out[method] = (
            percentile(np.asarray(outside_all), 99.0) / 1e6
            if outside_all
            else float("nan")
        )
        sync_table.add_row(
            method,
            p99_in[method],
            p99_out[method],
            p99_in[method] / max(p99_out[method], 1e-9),
            max(stalls) / 1e6,
            (max(ships) / 1e6) if ships else 0.0,
        )
    report.add_table(sync_table)

    drill_table = Table(
        "Failover drill (partition -> partial resync; SIGKILL mid-sync "
        "-> promotion)",
        ["method", "seed", "recovery ms", "acked kept", "partial resync",
         "AOF bytes repaired", "peer resyncs"],
    )
    drill_grid = [
        (method, seed)
        for method in FORK_METHODS
        for seed in range(profile.repeats)
    ]
    drills = []
    replay_identical = True
    for (method, seed), (outcome, replayed_ok) in zip(
        drill_grid, parallel_map(_drill_task, drill_grid)
    ):
        replay_identical &= replayed_ok
        drills.append(outcome)
        drill_table.add_row(
            method,
            seed,
            outcome["recovery_ns"] / 1e6,
            f"{outcome['acked_total'] - outcome['acked_lost']}"
            f"/{outcome['acked_total']}",
            "yes" if outcome["partial_ok"] else "NO",
            outcome["aof_bytes_dropped"],
            ",".join(
                f"{k}:{v}"
                for k, v in sorted(outcome["peer_resyncs"].items())
            ),
        )
    report.add_table(drill_table)

    report.check(
        "every drill promoted a replica after the master SIGKILL",
        all(d["promoted"] for d in drills),
    )
    report.check(
        "zero WAIT-acked writes lost across every promotion",
        all(d["acked_lost"] == 0 for d in drills),
    )
    report.check(
        "brief partition healed with a partial resync (no second fork)",
        all(d["partition_healed"] and d["partial_ok"] for d in drills),
    )
    report.check(
        "replica reads were flagged stale while the master was down",
        all(d["stale_flagged"] > 0 for d in drills),
    )
    report.check(
        "writes to the dead master were refused until promotion",
        all(d["write_refused_while_down"] for d in drills),
    )
    report.check(
        "drills replay byte-identically from their seeds",
        replay_identical,
    )
    report.check(
        "full-sync p99 spike is visibly smaller under Async-fork than "
        "the default fork",
        p99_in["async"] < p99_in["default"]
        and (p99_in["async"] / max(p99_out["async"], 1e-9))
        < 0.5 * (p99_in["default"] / max(p99_out["default"], 1e-9)),
    )
    return report
