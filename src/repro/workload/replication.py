"""Open-loop workload against a replicated master.

The replication question the paper's framing raises is: *what does
attaching a replica cost the live traffic?*  A full sync starts with
the same fork as BGSAVE, so the serving thread stalls for
``parent_call_ns`` at the trigger — seconds under the default fork at
large instances — while arrivals keep coming at the open-loop rate.
This driver reproduces the single-instance queueing model
(``start = max(arrival, free_at)``) with the master's replication
duties folded in:

* ``cron()`` runs once per arrival tick (heartbeats, the
  ``repl.master.cron`` fault site);
* an in-flight full-sync child is stepped once per served command —
  the serverCron idiom, so Async-fork's copy genuinely interleaves
  with traffic instead of completing atomically;
* the fork stall of a triggered sync lands on ``free_at`` exactly like
  a save-point fork, and the *sync window* (trigger to replica online)
  is recorded so disturbed and undisturbed queries can be split.

Stream propagation costs the master nothing here — replication is
asynchronous — but every shipped record advances the replicas'
contact clocks, which is what the lag/staleness machinery reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.determinism import seeded_rng
from repro.errors import ReplicationError
from repro.metrics.latency import LatencySample
from repro.repl.master import FullSyncReport, ReplicationMaster
from repro.repl.replica import ReplicaNode
from repro.workload.openloop import arrival_times, busy_schedule


@dataclass(frozen=True)
class ReplWorkloadSpec:
    """Shape of one replicated-master run's load."""

    count: int = 8_000
    n_keys: int = 8_000
    rate_per_sec: float = 50_000.0
    clients: int = 50
    set_ratio: float = 0.8
    value_size: int = 4_096
    base_service_ns: int = 10_000
    service_sigma: float = 0.15
    seed: int = 0


@dataclass
class ReplWorkload:
    """Materialized arrivals, ops and service times for one run."""

    spec: ReplWorkloadSpec
    arrivals_ns: np.ndarray
    is_set: np.ndarray
    key_index: np.ndarray
    service_ns: np.ndarray
    keys: list[bytes]

    def __len__(self) -> int:
        return len(self.arrivals_ns)


def build_repl_workload(spec: ReplWorkloadSpec) -> ReplWorkload:
    """Generate the deterministic load for one replicated run."""
    rng = seeded_rng(spec.seed)
    arrivals = arrival_times(
        spec.count, spec.rate_per_sec, clients=spec.clients, rng=rng
    )
    is_set = rng.random(spec.count) < spec.set_ratio
    key_index = rng.integers(0, spec.n_keys, size=spec.count)
    service = (
        spec.base_service_ns
        * rng.lognormal(0.0, spec.service_sigma, spec.count)
    ).astype(np.int64)
    keys = [b"rkey:%08d" % i for i in range(spec.n_keys)]
    return ReplWorkload(spec, arrivals, is_set, key_index, service, keys)


def prepopulate_master(
    master: ReplicationMaster, workload: ReplWorkload
) -> None:
    """Load the dataset before measurement (replicated to live replicas)."""
    value = b"\x00" * workload.spec.value_size
    for key in workload.keys:
        master.engine.set(key, value)
    master.engine.store.dirty_since_save = 0


@dataclass
class ReplRunResult:
    """Latency sample plus the sync-window decomposition of one run."""

    sample: LatencySample
    #: ``(start_ns, end_ns)`` of the full sync, when one was triggered.
    sync_window: Optional[tuple[int, int]]
    #: The completed sync's timing report (``None`` if it never finished).
    sync_report: Optional[FullSyncReport]
    #: Parent stall the sync's fork call added at the trigger.
    fork_stall_ns: int
    #: Writes refused by the min-replicas gate during the run.
    gated_writes: int
    final_clock_ns: int

    def split_by_window(self) -> tuple[np.ndarray, np.ndarray]:
        """Latencies ``(inside, outside)`` the sync window."""
        lat = self.sample.latencies_ns
        arr = self.sample.arrivals_ns
        if self.sync_window is None:
            return lat[:0], lat
        start, end = self.sync_window
        inside = (arr >= start) & (arr <= end)
        return lat[inside], lat[~inside]


def run_replicated_workload(
    master: ReplicationMaster,
    workload: ReplWorkload,
    sync_replica: Optional[ReplicaNode] = None,
    sync_link=None,
    sync_at: int = 0,
) -> ReplRunResult:
    """Drive the open-loop stream through a replicated master.

    When ``sync_replica`` is given, it is attached at arrival index
    ``sync_at`` and brought online through a real fork-backed full sync
    stepped cooperatively under the live traffic.
    """
    clock = master.clock
    n = len(workload)
    arrivals = workload.arrivals_ns
    service = workload.service_ns
    value = b"v" * workload.spec.value_size
    #: Queue occupancy per query: kernel time consumed by the engine
    #: call plus the modelled service time.  The engine's side effects
    #: (cron heartbeats, sync stepping, replication shipping) depend
    #: only on the *arrival* clock, never on queueing state, so the
    #: ``free_at`` recurrence can be solved after the fact in one scan.
    durations = np.empty(n, dtype=np.int64)
    stall_at: Optional[int] = None
    fork_stall_ns = 0
    gated = 0
    sync_session = None
    sync_start = None
    sync_window = None
    sync_report = None
    for i in range(n):
        arrival = int(arrivals[i])
        clock.advance_to(arrival)
        master.cron()
        if sync_replica is not None and i == sync_at:
            session = master.add_replica(sync_replica, sync_link)
            before = clock.now
            job = master.begin_full_sync(session)
            fork_stall_ns = clock.now - before
            if job is not None:
                sync_session = session
                sync_start = before
                stall_at = i
        if sync_session is not None and sync_session.sync_job is not None:
            report = master.step_full_sync(sync_session)
            if report is not None:
                sync_report = report
                assert sync_start is not None
                sync_window = (
                    sync_start,
                    clock.now + report.persist_ns + report.ship_ns,
                )
                sync_session = None
        key = workload.keys[workload.key_index[i]]
        before = clock.now
        try:
            if workload.is_set[i]:
                master.engine.set(key, value)
            else:
                master.engine.get(key)
        except ReplicationError:
            gated += 1
        kern = clock.now - before
        durations[i] = kern + int(service[i])
    latencies = _chain_latencies(
        arrivals, durations, stall_at, fork_stall_ns
    )
    # A sync still in flight at stream end: finish it off-window so the
    # replica is usable, but leave the window open-ended (unmeasured).
    if sync_session is not None and sync_session.sync_job is not None:
        job = sync_session.sync_job
        while not job.child_copy_done:
            job.step_child()
        sync_report = master.step_full_sync(sync_session)
        if sync_start is not None:
            sync_window = (sync_start, clock.now)
    return ReplRunResult(
        sample=LatencySample(latencies, arrivals),
        sync_window=sync_window,
        sync_report=sync_report,
        fork_stall_ns=fork_stall_ns,
        gated_writes=gated,
        final_clock_ns=clock.now,
    )


def _chain_latencies(
    arrivals: np.ndarray,
    durations: np.ndarray,
    stall_at: Optional[int],
    stall_ns: int,
) -> np.ndarray:
    """Latencies of the master's single-server chain, in one scan.

    A triggered sync's fork stall behaves exactly like a pseudo-query
    arriving at ``arrivals[stall_at]`` and occupying the server for
    ``stall_ns`` just before query ``stall_at`` is served, so it is
    spliced into the chain and its completion discarded.  All adds and
    maxima are int64, so the result is bit-identical to the scalar
    recurrence (see DESIGN.md §14).
    """
    if stall_at is None:
        ends = busy_schedule(arrivals, durations)
    else:
        arr = np.insert(arrivals, stall_at, arrivals[stall_at])
        dur = np.insert(durations, stall_at, np.int64(stall_ns))
        ends = np.delete(busy_schedule(arr, dur), stall_at)
    return ends - arrivals
