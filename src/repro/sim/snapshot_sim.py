"""The end-to-end snapshot experiment: fork + child copy + persist + queries.

One call to :func:`simulate_snapshot` reproduces the protocol of §6.1/§6.2:

1. an open-loop query stream (a :class:`~repro.workload.Workload`) drives
   a single- or multi-threaded server whose base service time is jittered
   lognormally;
2. at a configurable point, BGSAVE forks the engine through one of the
   three methods; the fork call blocks the server for its calibrated
   duration (hundreds of ms for the default fork at 64 GiB, ~1 ms for ODF,
   ~0.6 ms for Async-fork);
3. afterwards, state at PTE-table granularity determines per-query extra
   kernel time: ODF pays a table-CoW fault on the first write under each
   still-shared table for as long as the child lives; Async-fork pays a
   proactive synchronization only while the child copy (shortened by its
   kernel threads) is in flight; every method pays data-page CoW once per
   dirtied page and a small IO penalty while the child streams the RDB;
4. latencies are classified into snapshot/normal queries on arrival time.

Mechanism notes (see DESIGN.md for the calibration):

* *Fault pressure scales with size*: the fault-dense phase right after the
  fork lasts until most leaf tables are unshared (ODF) or copied
  (Async-fork); its length grows with the table count, i.e. the instance
  size, which produces the superlinear latency growth of Figures 9/10.
* *Hiccups*: rare multi-ms stalls (page-cache flushes, scheduler noise)
  affect every method equally and set the realistic noise floor for the
  maximum-latency plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.determinism import seeded_rng
from repro.kernel.costs import DEFAULT_COSTS, CostModel
from repro.metrics.latency import LatencySample
from repro.metrics.throughput import ThroughputSeries, windowed_throughput
from repro.obs import tracer as obs
from repro.obs.phases import child_copy_segments, trace_fork_phases
from repro.obs.tracer import Tracer
from repro.sim.compact import CompactInstance
from repro.sim.disk import DiskModel
from repro.sim.interrupts import InterruptRecorder
from repro.sim.network import ProductionEnvironment
from repro.units import MSEC, SEC, us
from repro.workload.generators import Workload

METHODS = ("default", "odf", "async", "none")


@dataclass
class SnapshotSimConfig:
    """Parameters of one simulated run."""

    size_gb: float
    method: str
    workload: Workload
    copy_threads: int = 8
    engine_threads: int = 1
    costs: CostModel = DEFAULT_COSTS
    disk: DiskModel = field(default_factory=DiskModel)
    #: When (as a fraction of the stream) BGSAVE is issued.
    bgsave_at_fraction: float = 0.25
    #: Base query service time (parse + execute + reply), before jitter.
    base_service_ns: int = 10_000
    service_sigma: float = 0.15
    fault_sigma: float = 0.15
    #: AOF persistence enabled (inflates service; fsync stalls).
    aof: bool = False
    #: The background job is a BGREWRITEAOF instead of BGSAVE (Fig. 21).
    rewrite: bool = False
    environment: Optional[ProductionEnvironment] = None
    #: Rare system hiccups (page-cache flush, scheduler) — method-neutral.
    hiccups: bool = True
    #: Socket back-pressure: bound on pipelined in-flight requests per
    #: client (0 = unbounded, true open-loop measurement from intended
    #: send times — the paper's enhanced-benchmark methodology).  When
    #: positive, the latency timer starts at the *actual* send instead.
    inflight_per_client: int = 0
    #: jemalloc decay purging: every ~purge_interval the allocator
    #: madvise()s a batch of dirty ranges back to the kernel.  A purge is
    #: a VMA-wide PTE modification (Table 3), so under ODF it unshares —
    #: and under Async-fork during the copy window proactively
    #: synchronizes — every still-pending leaf table it covers, in one
    #: long parent interruption.  This is the main source of ODF's
    #: size-scaling worst-case latency after the initial fault-dense
    #: phase.
    allocator_purge: bool = True
    purge_interval_ns: int = SEC
    #: Fraction of the instance's leaf tables one purge batch spans.
    purge_fraction: float = 1.0 / 32.0
    #: Ablation (§4.2): synchronize whole 512-entry tables (the paper's
    #: choice) or individual PTEs ('pte': cheaper each, far more often).
    sync_granularity: str = "table"
    #: Ablation (§4.2): extra handshake cost when the parent *notifies*
    #: the child and waits instead of copying the entries itself.
    sync_handshake_ns: int = 0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.sync_granularity not in ("table", "pte"):
            raise ValueError("sync_granularity must be 'table' or 'pte'")
        if not 0.0 < self.bgsave_at_fraction < 1.0:
            if self.method != "none":
                raise ValueError("bgsave_at_fraction must be in (0, 1)")
        if self.rewrite and not self.aof:
            raise ValueError("BGREWRITEAOF requires AOF to be enabled")


@dataclass
class SnapshotSimResult:
    """Everything a figure needs from one run."""

    config: SnapshotSimConfig
    instance: CompactInstance
    sample: LatencySample
    completions_ns: np.ndarray
    snapshot_start_ns: float
    snapshot_end_ns: float
    fork_call_ns: int
    child_copy_ns: int
    interrupts: InterruptRecorder
    counts: dict = field(default_factory=dict)
    #: Per-run span trace; ``interrupts`` is derived from its
    #: kernel-category spans, and the phase/io spans feed the
    #: ``repro-trace`` breakdown and Chrome-trace export.
    trace: Optional[Tracer] = None

    # -- classification ------------------------------------------------------

    def snapshot_queries(self) -> LatencySample:
        """Queries arriving during the snapshot period."""
        return self.sample.window(self.snapshot_start_ns, self.snapshot_end_ns)

    def normal_queries(self) -> LatencySample:
        """Queries arriving outside the snapshot period."""
        return self.sample.outside(self.snapshot_start_ns, self.snapshot_end_ns)

    def throughput(self, window_ns: int = 50 * MSEC) -> ThroughputSeries:
        """Windowed server-side throughput (Figures 17/18)."""
        return windowed_throughput(self.completions_ns, window_ns)

    def min_snapshot_qps(self, window_ns: int = 50 * MSEC) -> float:
        """Minimum windowed throughput during the snapshot (Figure 19)."""
        series = self.throughput(window_ns)
        return series.min_qps(self.snapshot_start_ns, self.snapshot_end_ns)

    def out_of_service_ns(self) -> int:
        """Total parent kernel-mode time (Figure 20)."""
        return self.interrupts.total_ns()


def simulate_snapshot(config: SnapshotSimConfig) -> SnapshotSimResult:
    """Run one experiment; see the module docstring for the protocol."""
    workload = config.workload
    instance = CompactInstance(
        config.size_gb, workload.meta.get("value_size", 1024)
    )
    costs = config.costs
    n = len(workload)
    rng = seeded_rng(config.seed)

    arrivals = workload.arrivals_ns
    is_set = workload.is_set
    pages = instance.pages_of_keys(workload.resident_key)
    tables = instance.tables_of_pages(pages)

    # Per-query base service time.
    base = config.base_service_ns
    if config.environment is not None:
        base = int(base * config.environment.service_inflation)
    sigma = config.service_sigma
    if config.environment is not None:
        sigma += config.environment.extra_jitter_sigma
    service = (base * rng.lognormal(0.0, sigma, n)).astype(np.int64)
    if config.aof:
        # Appending + amortized fsync work on every write.
        service = service + np.where(is_set, us(3), 0).astype(np.int64)

    # Pre-drawn fault durations (table CoW / proactive sync).
    fault_base = costs.table_fault_ns()
    fault_pool = (
        fault_base * rng.lognormal(0.0, config.fault_sigma, 65536)
    ).astype(np.int64)
    data_cow_ns = costs.data_cow_fault_ns()

    # System stalls: hiccups (all configs) + AOF fsync stalls.
    stall_times, stall_durs = _stall_schedule(config, arrivals, rng)
    purge_times, purge_starts = _purge_schedule(
        config, instance, arrivals, rng
    )

    # Fork-call cost per method.
    counts = instance.level_counts()
    fork_ns = costs.fork_call_ns(config.method, counts)
    child_copy_ns = (
        costs.child_copy_ns(counts, config.copy_threads)
        if config.method == "async"
        else 0
    )
    persist_ns = config.disk.persist_ns(instance.size_bytes)
    if config.rewrite:
        # The compact AOF the child writes is roughly the dataset plus
        # command framing.
        persist_ns = int(persist_ns * 1.15)

    fork_idx = (
        int(n * config.bgsave_at_fraction) if config.method != "none" else -1
    )

    runner = _Runner(
        config=config,
        instance=instance,
        arrivals=arrivals,
        is_set=is_set,
        pages=pages,
        tables=tables,
        service=service,
        fault_pool=fault_pool,
        data_cow_ns=data_cow_ns,
        stall_times=stall_times,
        stall_durs=stall_durs,
        purge_times=purge_times,
        purge_starts=purge_starts,
        fork_idx=fork_idx,
        fork_ns=fork_ns,
        child_copy_ns=child_copy_ns,
        persist_ns=persist_ns,
        counts=counts,
    )
    latencies, completions = runner.run()

    if obs.ACTIVE:
        obs.emit_instant(
            "sim.run",
            obs.CAT_SIM,
            0,
            method=config.method,
            size_gb=config.size_gb,
            seed=config.seed,
        )
        for collector in obs.ACTIVE:
            collector.extend(runner.trace.records)

    if config.environment is not None:
        latencies = latencies + config.environment.rtt_ns

    sample = LatencySample(latencies, arrivals.copy())
    return SnapshotSimResult(
        config=config,
        instance=instance,
        sample=sample,
        completions_ns=completions,
        snapshot_start_ns=runner.snapshot_start,
        snapshot_end_ns=runner.snapshot_end,
        fork_call_ns=fork_ns,
        child_copy_ns=child_copy_ns,
        interrupts=runner.interrupts,
        trace=runner.trace,
        counts={
            "proactive_syncs": runner.n_syncs,
            "table_faults": runner.n_table_faults,
            "data_cow": runner.n_data_cow,
            "level_counts": counts,
            "persist_ns": persist_ns,
        },
    )


def _purge_schedule(
    config: SnapshotSimConfig,
    instance: CompactInstance,
    arrivals: np.ndarray,
    rng: np.random.Generator,
):
    """Times and starting table indices of the allocator purge batches."""
    if not config.allocator_purge or len(arrivals) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    t0, t1 = int(arrivals[0]), int(arrivals[-1])
    times = []
    t = t0 + rng.exponential(config.purge_interval_ns)
    while t < t1:
        times.append(int(t))
        t += rng.exponential(config.purge_interval_ns)
    starts = rng.integers(
        0, max(1, instance.n_tables), size=len(times), dtype=np.int64
    )
    return np.asarray(times, np.int64), starts


def _stall_schedule(
    config: SnapshotSimConfig, arrivals: np.ndarray, rng: np.random.Generator
):
    """Times and durations of whole-server stalls (hiccups, AOF fsync)."""
    if len(arrivals) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    t0, t1 = int(arrivals[0]), int(arrivals[-1])
    times = []
    durs = []
    if config.hiccups:
        mean_gap = 2 * SEC
        t = t0 + rng.exponential(mean_gap)
        while t < t1:
            times.append(t)
            durs.append(int(1.5 * MSEC * rng.lognormal(0.0, 0.5)))
            t += rng.exponential(mean_gap)
    if config.aof:
        # fsync back-pressure: short stalls a few times per second.
        mean_gap = 150 * MSEC
        t = t0 + rng.exponential(mean_gap)
        while t < t1:
            times.append(t)
            durs.append(int(2.0 * MSEC * rng.lognormal(0.0, 0.4)))
            t += rng.exponential(mean_gap)
    if not times:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    order = np.argsort(times)
    return (
        np.asarray(times, np.int64)[order],
        np.asarray(durs, np.int64)[order],
    )


class _Runner:
    """The event loop: queries, stalls, the fork, and table-state updates."""

    def __init__(self, **kw) -> None:
        self.__dict__.update(kw)
        config: SnapshotSimConfig = kw["config"]
        instance: CompactInstance = kw["instance"]
        self.method = config.method
        self.threads = max(1, config.engine_threads)
        #: Always-on per-run trace; :attr:`interrupts` is derived from
        #: its kernel-category spans after the loop (see :meth:`run`).
        self.trace = Tracer()
        self.interrupts = InterruptRecorder()
        self.n_syncs = 0
        self.n_table_faults = 0
        self.n_data_cow = 0
        self.snapshot_start = float("inf")
        self.snapshot_end = float("inf")
        self._dirty = np.zeros(instance.n_pages, dtype=bool)
        self._synced = np.zeros(instance.n_tables, dtype=bool)
        self._shared = np.zeros(instance.n_tables, dtype=bool)
        self._pte_sync = config.sync_granularity == "pte"
        self._synced_pages = (
            np.zeros(instance.n_pages, dtype=bool) if self._pte_sync else None
        )
        self._pte_sync_ns = (
            config.costs.fault_overhead_ns
            + config.costs.dir_entry_copy_ns
            + config.costs.pte_entry_copy_ns
        )
        self._handshake_ns = config.sync_handshake_ns
        self._copy_start = 0.0
        self._copy_end = -1.0
        self._persist_start = -1.0
        self._persist_end = -1.0
        self._tables_per_ns = 0.0
        self._io_penalty = config.disk.io_penalty

    # ------------------------------------------------------------------

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        """Execute the run; returns (latencies, completions).

        The single-threaded open-loop path (no TCP back-pressure) is
        computed with the vectorized prefix-scan timeline of
        :mod:`repro.sim.snapshot_vec` — bit-identical to the scalar
        loop (DESIGN.md §14), which remains both the fallback when the
        fixed-point iteration fails to settle and the only path for
        multi-threaded engines and bounded-inflight clients, whose
        completion feedback genuinely needs stepping.
        """
        from repro.sim import snapshot_vec

        if self.threads == 1 and self.config.inflight_per_client == 0:
            result = snapshot_vec.try_vectorized(self)
            if result is not None:
                return result
        return self._run_scalar()

    def _run_scalar(self) -> tuple[np.ndarray, np.ndarray]:
        """The arrival-by-arrival loop (any thread count, back-pressure)."""
        arrivals = self.arrivals
        is_set = self.is_set
        tables = self.tables
        pages = self.pages
        service = self.service
        stall_times = self.stall_times
        stall_durs = self.stall_durs
        fault_pool = self.fault_pool
        data_cow_ns = self.data_cow_ns
        n = len(arrivals)

        latencies = np.empty(n, dtype=np.int64)
        completions = np.empty(n, dtype=np.int64)

        t_free = [0] * self.threads
        mm_free = 0  # mm-lock availability
        clients = self.config.workload.config.clients
        per_client = self.config.inflight_per_client
        # 0 disables back-pressure: pure open-loop, timers at intended send.
        max_inflight = clients * per_client if per_client > 0 else n + 1
        s_idx = 0
        n_stalls = len(stall_times)
        purge_times = self.purge_times
        purge_starts = self.purge_starts
        p_idx = 0
        n_purges = len(purge_times)
        fp = 0
        fp_mask = len(fault_pool) - 1
        method = self.method
        forked = False
        trace = self.trace
        wait_total = 0  # summed (start - arrival) queueing delay

        for i in range(n):
            t_arr = arrivals[i]
            # TCP back-pressure: the client cannot have more than
            # max_inflight requests outstanding; the send stalls until an
            # older response lands, and the latency timer starts at the
            # actual send.
            if i >= max_inflight:
                unblocked = completions[i - max_inflight]
                if unblocked > t_arr:
                    t_arr = unblocked

            # Whole-server stalls that begin before this arrival.
            while s_idx < n_stalls and stall_times[s_idx] <= t_arr:
                st, sd = stall_times[s_idx], stall_durs[s_idx]
                t_free = [max(f, st) + sd for f in t_free]
                s_idx += 1

            # Allocator purge batches (jemalloc decay) before this arrival.
            while p_idx < n_purges and purge_times[p_idx] <= t_arr:
                pt = purge_times[p_idx]
                cost = self._apply_purge(pt, purge_starts[p_idx], forked)
                t_free = [max(f, pt) + cost for f in t_free]
                p_idx += 1

            # The BGSAVE/BGREWRITEAOF command.
            if i == self.fork_idx and not forked:
                forked = True
                fork_start = max(t_arr, min(t_free))
                fork_end = fork_start + self.fork_ns
                t_free = [max(f, fork_end) for f in t_free]
                fork_at = int(fork_start)
                trace.add(
                    "fork:" + method,
                    obs.CAT_KERNEL,
                    fork_at,
                    fork_at + self.fork_ns,
                )
                trace_fork_phases(
                    trace.add, method, self.counts, self.config.costs, fork_at
                )
                self._arm_windows(fork_start)

            # Serve the query.
            j = t_free.index(min(t_free))
            start = t_arr if t_arr > t_free[j] else t_free[j]
            svc = service[i]
            kernel_extra = 0  # page-fault work, serialized on the mm lock

            if forked and start < self._persist_end:
                if is_set[i]:
                    k = tables[i]
                    if k >= 0:
                        if method == "async" and start < self._copy_end:
                            progress = (
                                start - self._copy_start
                            ) * self._tables_per_ns
                            if self._pte_sync:
                                pg0 = pages[i]
                                if (
                                    k >= progress
                                    and not self._synced_pages[pg0]
                                ):
                                    extra = (
                                        self._pte_sync_ns
                                        + self._handshake_ns
                                    )
                                    kernel_extra += extra
                                    self._synced_pages[pg0] = True
                                    self.n_syncs += 1
                                    at = int(start)
                                    trace.add(
                                        "async:proactive-sync-pte",
                                        obs.CAT_KERNEL,
                                        at,
                                        at + extra,
                                    )
                            elif k >= progress and not self._synced[k]:
                                extra = (
                                    int(fault_pool[fp & fp_mask])
                                    + self._handshake_ns
                                )
                                fp += 1
                                kernel_extra += extra
                                self._synced[k] = True
                                self.n_syncs += 1
                                at = int(start)
                                trace.add(
                                    "async:proactive-sync",
                                    obs.CAT_KERNEL,
                                    at,
                                    at + extra,
                                )
                        elif method == "odf" and self._shared[k]:
                            extra = int(fault_pool[fp & fp_mask])
                            fp += 1
                            kernel_extra += extra
                            self._shared[k] = False
                            self.n_table_faults += 1
                            at = int(start)
                            trace.add(
                                "odf:table-cow",
                                obs.CAT_KERNEL,
                                at,
                                at + extra,
                            )
                        pg = pages[i]
                        if not self._dirty[pg]:
                            kernel_extra += data_cow_ns
                            self._dirty[pg] = True
                            self.n_data_cow += 1
                if self._persist_start <= start:
                    svc = int(svc * self._io_penalty)

            if kernel_extra:
                # Page-fault handling serializes on the process's memory
                # locks (mmap_sem / PTE-table page locks), so concurrent
                # KeyDB worker threads queue behind each other here.
                fault_begin = start if start > mm_free else mm_free
                mm_free = fault_begin + kernel_extra
                end = mm_free + svc
                t_free[j] = end
            else:
                end = start + svc
                t_free[j] = end
            wait_total += start - t_arr
            latencies[i] = end - t_arr
            completions[i] = end

        trace.instant(
            "queue.wait",
            obs.CAT_PHASE,
            0,
            total_ns=int(wait_total),
            queries=n,
        )
        self.interrupts = InterruptRecorder.from_trace(trace)
        return latencies, completions

    def _apply_purge(self, t: int, start_table: int, forked: bool) -> int:
        """One jemalloc purge batch: returns its server-blocking cost.

        The madvise zap itself is cheap; the expensive part is the
        VMA-wide checkpoint handling while tables are still pending —
        ODF's table CoW or Async-fork's proactive synchronization, one
        ``copy_pmd_range()`` invocation per table.
        """
        instance: CompactInstance = self.instance
        k = max(1, int(instance.n_tables * self.config.purge_fraction))
        end_table = min(instance.n_tables, start_table + k)
        cost = (end_table - start_table) * 200  # the zap itself
        if not forked or t >= self._persist_end:
            return cost
        fault_ns = self.config.costs.table_fault_ns()
        if self.method == "odf":
            for idx in range(start_table, end_table):
                if self._shared[idx]:
                    self._shared[idx] = False
                    at = int(t) + cost
                    self.trace.add(
                        "odf:table-cow",
                        obs.CAT_KERNEL,
                        at,
                        at + fault_ns,
                        purge=True,
                    )
                    cost += fault_ns
                    self.n_table_faults += 1
        elif self.method == "async" and t < self._copy_end:
            progress = (t - self._copy_start) * self._tables_per_ns
            for idx in range(start_table, end_table):
                if idx >= progress and not self._synced[idx]:
                    self._synced[idx] = True
                    at = int(t) + cost
                    self.trace.add(
                        "async:proactive-sync",
                        obs.CAT_KERNEL,
                        at,
                        at + fault_ns,
                        purge=True,
                    )
                    cost += fault_ns
                    self.n_syncs += 1
        return cost

    def _arm_windows(self, fork_start: float) -> None:
        fork_end = fork_start + self.fork_ns
        self.snapshot_start = fork_start
        self._copy_start = fork_end
        if self.method == "async":
            self._copy_end = fork_end + self.child_copy_ns
            if self.child_copy_ns > 0:
                self._tables_per_ns = (
                    self.instance.n_tables / self.child_copy_ns
                )
        else:
            self._copy_end = fork_end
        if self.method == "odf":
            self._shared[:] = True
        self._persist_start = self._copy_end
        self._persist_end = self._persist_start + self.persist_ns
        self.snapshot_end = self._persist_end
        if self.method == "async" and self.child_copy_ns > 0:
            for name, s, e, attrs in child_copy_segments(
                self.counts,
                int(self._copy_start),
                int(self._copy_end),
                self.config.costs,
            ):
                self.trace.add(name, obs.CAT_PHASE, s, e, **attrs)
        what = "aof" if self.config.rewrite else "rdb"
        self.trace.add(
            "persist." + what,
            obs.CAT_IO,
            int(self._persist_start),
            int(self._persist_end),
            nbytes=self.instance.size_bytes,
        )
        self.trace.add(
            "snapshot.window",
            obs.CAT_SIM,
            int(fork_start),
            int(self._persist_end),
            method=self.method,
        )
