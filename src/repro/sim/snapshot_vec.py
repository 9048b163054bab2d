"""Vectorized timeline for :class:`repro.sim.snapshot_sim._Runner`.

The scalar event loop steps arrival-by-arrival; this module computes the
identical schedule with numpy prefix scans (DESIGN.md §14):

1. **Merged event sequence.**  Stalls, allocator purges, the fork call
   and the queries are one sequence ordered exactly as the scalar loop
   processes them: events with ``time <= arrival[i]`` drain before query
   ``i`` (stalls before purges, the fork after both), so each event's
   merged rank is ``(slot, class, original order)``.

2. **Exact prefix scan.**  Every event obeys
   ``end = max(time, prev_end) + duration``, which unrolls to a running
   maximum over ``time - shifted_cumsum`` — int64 adds/maxima only, so
   :func:`repro.workload.openloop.busy_schedule` is bit-identical to the
   scalar recurrence, not merely close.

3. **Fixed point over state-dependent durations.**  Post-fork durations
   depend on start times (persist/copy-window membership, the child-copy
   progress line) and on first-toucher state (ODF's shared tables,
   Async-fork's synced tables/pages, dirty data pages) shared between
   queries and purges.  The prefix chain up to the fork is closed-form
   (pre-fork events have no extras), which pins the snapshot windows;
   the post-fork durations are then iterated to a fixed point — scan,
   recompute extras from the starts, rescan — and the loop falls back to
   the scalar path if it does not converge, so byte-identity is
   unconditional.

Trace spans (fork block, per-fault kernel spans, purge ladders, the
``queue.wait`` instant) are emitted in merged-rank order after
convergence, reproducing the scalar append order byte-for-byte.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs import tracer as obs
from repro.obs.phases import trace_fork_phases
from repro.sim.interrupts import InterruptRecorder
from repro.workload.openloop import busy_schedule, event_slots

#: Fixed-point iteration cap before punting to the scalar loop.  The
#: durations usually settle in 2-4 rounds; oscillation is only possible
#: when a start time flaps across a window boundary.
MAX_ITERS = 20

K_STALL, K_PURGE, K_FORK, K_QUERY = 0, 1, 2, 3


def try_vectorized(runner) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Run the vectorized timeline; ``None`` means 'use the scalar loop'.

    On success the runner's trace, counters, windows and interrupts are
    populated exactly as the scalar loop would have left them.
    """
    arrivals = runner.arrivals
    n = len(arrivals)
    if n == 0:
        return None
    config = runner.config
    instance = runner.instance
    method = runner.method
    n_tables = instance.n_tables

    # -- the merged event sequence --------------------------------------
    stall_slots = event_slots(arrivals, runner.stall_times)
    stall_keep = stall_slots < n
    stall_times = runner.stall_times[stall_keep]
    stall_durs = runner.stall_durs[stall_keep]
    stall_slots = stall_slots[stall_keep]

    purge_slots = event_slots(arrivals, runner.purge_times)
    purge_keep = purge_slots < n
    purge_times = runner.purge_times[purge_keep]
    purge_table0 = runner.purge_starts[purge_keep]
    purge_slots = purge_slots[purge_keep]
    n_stalls, n_purges = len(stall_times), len(purge_times)

    span = max(1, int(n_tables * config.purge_fraction))
    purge_table1 = np.minimum(n_tables, purge_table0 + span)
    purge_base = (purge_table1 - purge_table0) * 200

    has_fork = 0 <= runner.fork_idx < n
    fork_idx = runner.fork_idx

    slot_all = np.concatenate(
        [
            stall_slots,
            purge_slots,
            np.asarray([fork_idx] if has_fork else [], dtype=np.int64),
            np.arange(n, dtype=np.int64),
        ]
    )
    kind_all = np.concatenate(
        [
            np.full(n_stalls, K_STALL, dtype=np.int64),
            np.full(n_purges, K_PURGE, dtype=np.int64),
            np.asarray([K_FORK] if has_fork else [], dtype=np.int64),
            np.full(n, K_QUERY, dtype=np.int64),
        ]
    )
    time_all = np.concatenate(
        [
            stall_times,
            purge_times,
            np.asarray(
                [arrivals[fork_idx]] if has_fork else [], dtype=np.int64
            ),
            arrivals,
        ]
    )
    dur_all = np.concatenate(
        [
            stall_durs,
            purge_base,
            np.asarray([runner.fork_ns] if has_fork else [], dtype=np.int64),
            runner.service,
        ]
    )
    order = np.argsort(slot_all * 4 + kind_all, kind="stable")
    times = time_all[order]
    base_durs = dur_all[order]
    kinds = kind_all[order]
    # Rank of each query / purge in the merged sequence.
    inv = np.empty(len(order), dtype=np.int64)
    inv[order] = np.arange(len(order))
    query_rank = inv[-n:]
    purge_rank = inv[n_stalls : n_stalls + n_purges]

    if not has_fork:
        # No fork, no state, no extras: one exact scan finishes the run.
        ends_all = busy_schedule(times, base_durs)
        ends_q = ends_all[query_rank]
        starts_q = ends_q - runner.service
        return _finish(
            runner, arrivals, starts_q, ends_q, None, None, None, None
        )

    # -- stage A: the exact pre-fork prefix -----------------------------
    # Pre-fork events have state-independent durations (no extras before
    # the fork, purges cost their base zap), so the first scan already
    # yields the exact fork start, which pins every window.
    fork_rank = int(inv[n_stalls + n_purges])
    ends_all = busy_schedule(times, base_durs)
    fork_start = ends_all[fork_rank] - runner.fork_ns  # np.int64, as scalar
    fork_end = fork_start + runner.fork_ns
    copy_start = fork_end
    copy_end = (
        fork_end + runner.child_copy_ns if method == "async" else fork_end
    )
    tables_per_ns = 0.0
    if method == "async" and runner.child_copy_ns > 0:
        tables_per_ns = n_tables / runner.child_copy_ns
    persist_start = copy_end
    persist_end = persist_start + runner.persist_ns

    # -- stage B: fixed point over the post-fork durations --------------
    post = slice(fork_idx, n)
    k_post = runner.tables[post]
    pg_post = runner.pages[post]
    set_post = runner.is_set[post]
    svc_post = runner.service[post]
    arr_post = arrivals[post]
    post_query_rank = query_rank[post]
    fault_ns = config.costs.table_fault_ns()
    pte_mode = runner._pte_sync
    handshake = runner._handshake_ns
    io_penalty = runner._io_penalty
    fp_mask = len(runner.fault_pool) - 1

    post_purge = np.flatnonzero(purge_rank > fork_rank)
    # Post-fork purge gates depend only on the purge's own (known) time.
    purge_live = np.zeros(n_purges, dtype=bool)
    if len(post_purge):
        pt = purge_times[post_purge]
        live = pt < persist_end
        if method == "odf":
            pass
        elif method == "async":
            live = live & (pt < copy_end)
        else:
            live = np.zeros(len(post_purge), dtype=bool)
        purge_live[post_purge] = live
    live_purges = np.flatnonzero(purge_live)

    durs = base_durs
    pay_sync = pay_pte = pay_cow = pool_vals = None
    purge_paid: list[np.ndarray] = []
    for _ in range(MAX_ITERS):
        ends_all = busy_schedule(times, durs)
        starts_post = ends_all[post_query_rank] - durs[post_query_rank]

        in_win = starts_post < persist_end
        base_cand = in_win & set_post & (k_post >= 0)
        svc_eff = np.where(
            in_win & (starts_post >= persist_start),
            (svc_post * io_penalty).astype(np.int64),
            svc_post,
        )

        pay_sync = np.zeros(len(svc_post), dtype=bool)
        pay_pte = np.zeros(len(svc_post), dtype=bool)
        purge_paid = [np.empty(0, np.int64)] * n_purges
        if method == "async":
            progress = (starts_post - copy_start) * tables_per_ns
            in_copy = base_cand & (starts_post < copy_end)
            sync_cand = in_copy & (k_post >= progress)
            if pte_mode:
                pay_pte = _first_per_key(sync_cand, pg_post)
                # Purges touch _synced (tables) which queries never set
                # in pte mode; only purge-vs-purge interaction remains.
                _resolve_purges_only(
                    live_purges,
                    purge_times,
                    purge_table0,
                    purge_table1,
                    copy_start,
                    tables_per_ns,
                    n_tables,
                    purge_paid,
                    progress_gate=True,
                )
            else:
                pay_sync = _first_per_key_with_purges(
                    sync_cand,
                    k_post,
                    post_query_rank,
                    live_purges,
                    purge_rank,
                    purge_times,
                    purge_table0,
                    purge_table1,
                    copy_start,
                    tables_per_ns,
                    n_tables,
                    purge_paid,
                    progress_gate=True,
                )
        elif method == "odf":
            pay_sync = _first_per_key_with_purges(
                base_cand,
                k_post,
                post_query_rank,
                live_purges,
                purge_rank,
                purge_times,
                purge_table0,
                purge_table1,
                copy_start,
                tables_per_ns,
                n_tables,
                purge_paid,
                progress_gate=False,
            )
        pay_cow = _first_per_key(base_cand, pg_post)

        # Shared fault-pool cursor: queries draw in arrival order.
        ordinals = np.cumsum(pay_sync) - 1
        pool_vals = runner.fault_pool[ordinals & fp_mask]

        extra = np.where(pay_cow, runner.data_cow_ns, 0).astype(np.int64)
        if method == "async":
            if pte_mode:
                extra += np.where(
                    pay_pte, runner._pte_sync_ns + handshake, 0
                )
            else:
                extra += np.where(pay_sync, pool_vals + handshake, 0)
        elif method == "odf":
            extra += np.where(pay_sync, pool_vals, 0)

        new_durs = durs.copy()
        new_durs[post_query_rank] = svc_eff + extra
        if len(live_purges):
            paid_counts = np.asarray(
                [len(purge_paid[p]) for p in live_purges], dtype=np.int64
            )
            new_durs[purge_rank[live_purges]] = (
                purge_base[live_purges] + paid_counts * fault_ns
            )
        if np.array_equal(new_durs, durs):
            break
        durs = new_durs
    else:
        return None  # no fixed point: the scalar loop settles it

    ends_q = ends_all[query_rank]
    starts_q = ends_q - durs[query_rank]
    return _finish(
        runner,
        arrivals,
        starts_q,
        ends_q,
        fork_start,
        (pay_sync, pay_pte, pay_cow, pool_vals, starts_q[post], post_query_rank),
        (live_purges, purge_paid, purge_times, purge_rank, purge_base),
        fault_ns,
    )


def _first_per_key(cand: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """First candidate per key wins (queries only, in arrival order)."""
    pays = np.zeros(len(cand), dtype=bool)
    idx = np.flatnonzero(cand)
    if len(idx):
        _, first = np.unique(keys[idx], return_index=True)
        pays[idx[first]] = True
    return pays


def _purge_cover(
    purge_idx: int,
    purge_times,
    purge_table0,
    purge_table1,
    copy_start,
    tables_per_ns,
    progress_gate: bool,
) -> np.ndarray:
    """Tables one live purge covers, in the scalar loop's ascending order."""
    cover = np.arange(
        purge_table0[purge_idx], purge_table1[purge_idx], dtype=np.int64
    )
    if progress_gate:
        progress = (purge_times[purge_idx] - copy_start) * tables_per_ns
        cover = cover[cover >= progress]
    return cover


def _resolve_purges_only(
    live_purges,
    purge_times,
    purge_table0,
    purge_table1,
    copy_start,
    tables_per_ns,
    n_tables,
    purge_paid,
    progress_gate: bool,
) -> None:
    """Purge-vs-purge first-toucher state (pte mode's ``_synced``)."""
    consumed = np.zeros(n_tables, dtype=bool)
    for p in live_purges:
        cover = _purge_cover(
            p,
            purge_times,
            purge_table0,
            purge_table1,
            copy_start,
            tables_per_ns,
            progress_gate,
        )
        fresh = cover[~consumed[cover]]
        consumed[fresh] = True
        purge_paid[p] = fresh


def _first_per_key_with_purges(
    cand,
    keys,
    cand_ranks_all,
    live_purges,
    purge_rank,
    purge_times,
    purge_table0,
    purge_table1,
    copy_start,
    tables_per_ns,
    n_tables,
    purge_paid,
    progress_gate: bool,
) -> np.ndarray:
    """First toucher per table across interleaved queries and purges.

    Queries arrive in rank order; each live purge is a barrier that bulk
    consumes its covered tables.  Within a stretch between purges the
    first candidate query per table pays; a purge then pays every still
    unconsumed table it covers (ascending, as the scalar ladder walks).
    """
    pays = np.zeros(len(cand), dtype=bool)
    consumed = np.zeros(n_tables, dtype=bool)
    cand_idx = np.flatnonzero(cand)
    cand_keys = keys[cand_idx]
    cand_ranks = cand_ranks_all[cand_idx]  # ascending: queries in order
    seg = 0

    def settle(upto: int, seg: int) -> int:
        if upto > seg:
            seg_keys = cand_keys[seg:upto]
            uniq, first = np.unique(seg_keys, return_index=True)
            fresh = ~consumed[uniq]
            pays[cand_idx[seg + first[fresh]]] = True
            consumed[uniq[fresh]] = True
        return upto

    for p in live_purges:
        seg = settle(
            int(np.searchsorted(cand_ranks, purge_rank[p])), seg
        )
        cover = _purge_cover(
            p,
            purge_times,
            purge_table0,
            purge_table1,
            copy_start,
            tables_per_ns,
            progress_gate,
        )
        fresh = cover[~consumed[cover]]
        consumed[fresh] = True
        purge_paid[p] = fresh
    settle(len(cand_ranks), seg)
    return pays


def _finish(
    runner,
    arrivals,
    starts_q,
    ends_q,
    fork_start,
    query_pays,
    purge_info,
    fault_ns=0,
) -> tuple[np.ndarray, np.ndarray]:
    """Emit the trace in scalar append order and fill the counters."""
    trace = runner.trace
    method = runner.method
    n = len(arrivals)

    if fork_start is not None:
        fork_at = int(fork_start)
        trace.add(
            "fork:" + method,
            obs.CAT_KERNEL,
            fork_at,
            fork_at + runner.fork_ns,
        )
        trace_fork_phases(
            trace.add, method, runner.counts, runner.config.costs, fork_at
        )
        runner._arm_windows(fork_start)

        (
            pay_sync,
            pay_pte,
            pay_cow,
            pool_vals,
            starts_post,
            post_query_rank,
        ) = query_pays
        live_purges, purge_paid, purge_times, purge_rank, purge_base = (
            purge_info
        )

        if method == "async" and runner._pte_sync:
            span_name, spans_mask = "async:proactive-sync-pte", pay_pte
            handshake = runner._handshake_ns
            extras = np.full(
                len(starts_post), runner._pte_sync_ns + handshake
            )
        elif method == "async":
            span_name, spans_mask = "async:proactive-sync", pay_sync
            extras = pool_vals + runner._handshake_ns
        elif method == "odf":
            span_name, spans_mask = "odf:table-cow", pay_sync
            extras = pool_vals
        else:
            span_name, spans_mask = "", np.zeros(0, dtype=bool)
            extras = np.zeros(0, dtype=np.int64)

        purge_name = (
            "odf:table-cow" if method == "odf" else "async:proactive-sync"
        )
        # Interleave paying queries and purge ladders by merged rank.
        events: list[tuple[int, int, int]] = []  # (rank, kind, payload)
        for j in np.flatnonzero(spans_mask):
            events.append((int(post_query_rank[j]), K_QUERY, int(j)))
        for p in live_purges:
            if len(purge_paid[p]):
                events.append((int(purge_rank[p]), K_PURGE, int(p)))
        events.sort()
        for _, kind, payload in events:
            if kind == K_QUERY:
                at = int(starts_post[payload])
                trace.add(
                    span_name,
                    obs.CAT_KERNEL,
                    at,
                    at + int(extras[payload]),
                )
            else:
                t = int(purge_times[payload])
                cost = int(purge_base[payload])
                for idx in purge_paid[payload]:
                    at = t + cost
                    trace.add(
                        purge_name,
                        obs.CAT_KERNEL,
                        at,
                        at + fault_ns,
                        purge=True,
                    )
                    cost += fault_ns

        purge_pay_total = sum(len(purge_paid[p]) for p in live_purges)
        if method == "async":
            runner.n_syncs = int(
                np.count_nonzero(pay_sync)
                + np.count_nonzero(pay_pte)
                + purge_pay_total
            )
        elif method == "odf":
            runner.n_table_faults = int(
                np.count_nonzero(pay_sync) + purge_pay_total
            )
        runner.n_data_cow = int(np.count_nonzero(pay_cow))

    wait_total = int(np.sum(starts_q - arrivals))
    trace.instant(
        "queue.wait",
        obs.CAT_PHASE,
        0,
        total_ns=wait_total,
        queries=n,
    )
    runner.interrupts = InterruptRecorder.from_trace(trace)
    latencies = (ends_q - arrivals).astype(np.int64)
    return latencies, ends_q.astype(np.int64)
