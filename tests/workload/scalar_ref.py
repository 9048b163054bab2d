"""Scalar reference recurrences for the vectorized queueing solvers.

Literal per-query transcriptions of the timelines that
:func:`repro.workload.cluster._solve_timeline` and
:func:`repro.workload.replication._chain_latencies` compute with prefix
scans (DESIGN.md §14).  They live only here: the property tests in
``test_timeline_vec.py`` and ``test_reshard.py`` check the production
solvers against them, bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def solve_timeline_scalar(
    arrivals: np.ndarray,
    service: np.ndarray,
    kerns: np.ndarray,
    rtts: np.ndarray,
    shard_ids: np.ndarray,
    fork_batches: list[tuple[int, int, list[tuple[int, int]]]],
    n_shards: int,
    fixed_ns: int,
    busy_batches: list[tuple[int, int, list[tuple[int, int]]]] = (),
) -> tuple[np.ndarray, int]:
    """Reference for :func:`repro.workload.cluster._solve_timeline`."""
    n = len(arrivals)
    latencies = np.empty(n, dtype=np.int64)
    free_at = [0] * n_shards
    kernel_busy = 0
    kernel_ns = 0
    batch_pos = 0
    busy_pos = 0
    for i in range(n):
        arrival = int(arrivals[i])
        if (
            batch_pos < len(fork_batches)
            and fork_batches[batch_pos][0] == i
        ):
            _, tick_start, evs = fork_batches[batch_pos]
            batch_pos += 1
            for shard_id, fork_ns in evs:
                fixed = min(fork_ns, fixed_ns)
                copy = fork_ns - fixed
                kernel_start = max(tick_start + fixed, kernel_busy)
                kernel_busy = kernel_start + copy
                kernel_ns += copy
                free_at[shard_id] = max(free_at[shard_id], kernel_busy)
        if (
            busy_pos < len(busy_batches)
            and busy_batches[busy_pos][0] == i
        ):
            _, tick_start, evs = busy_batches[busy_pos]
            busy_pos += 1
            for shard_id, busy_ns in evs:
                # Userspace migration work: shard busy, kernel lock free.
                free_at[shard_id] = (
                    max(free_at[shard_id], tick_start) + busy_ns
                )
        shard = int(shard_ids[i])
        kern = int(kerns[i])
        start = max(arrival, free_at[shard])
        if kern > 0:
            kernel_start = max(start, kernel_busy)
            kernel_busy = kernel_start + kern
            kernel_ns += kern
            end = kernel_start + kern + int(service[i])
        else:
            end = start + int(service[i])
        free_at[shard] = end
        latencies[i] = end - arrival + int(rtts[i])
    return latencies, kernel_ns


def chain_latencies_scalar(
    arrivals: np.ndarray,
    durations: np.ndarray,
    stall_at: Optional[int],
    stall_ns: int,
) -> np.ndarray:
    """Reference for :func:`repro.workload.replication._chain_latencies`."""
    n = len(arrivals)
    latencies = np.empty(n, dtype=np.int64)
    free_at = 0
    for i in range(n):
        arrival = int(arrivals[i])
        if i == stall_at:
            free_at = max(free_at, arrival) + stall_ns
        end = max(arrival, free_at) + int(durations[i])
        free_at = end
        latencies[i] = end - arrival
    return latencies
