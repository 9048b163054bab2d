"""Open-loop arrival processes.

In open-loop load generation the clients submit at a fixed aggregate rate
regardless of server progress, so a stalled server accumulates a queue and
the stall becomes visible as latency — the methodological point of
[Schroeder'06] and [Treadmill'16] that the paper adopts (§3, §6.1).

The number of clients shapes *burstiness* rather than rate: many clients
multiplexed over few connections deliver requests in clumps.  Figure 13's
finding — more clients ⇒ longer interruptions ⇒ higher tail latency — is
reproduced by modelling arrivals as batches whose size grows with the
client count while the long-run rate stays fixed.
"""

from __future__ import annotations

import numpy as np

from repro.determinism import seeded_rng
from repro.units import SEC

#: One batch per this many clients (50 clients -> batches of 5).
CLIENTS_PER_BATCH_SLOT = 10


def batch_size_for_clients(clients: int) -> int:
    """How many queries arrive back-to-back for a given client count."""
    return max(1, round(clients / CLIENTS_PER_BATCH_SLOT))


def arrival_times(
    count: int,
    rate_per_sec: float,
    clients: int = 50,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Generate ``count`` arrival instants (int64 ns, sorted).

    Arrivals come in batches of :func:`batch_size_for_clients` queries;
    batch inter-arrival gaps are exponential with mean chosen so the
    aggregate rate equals ``rate_per_sec``.  Queries within a batch are
    spread over a microsecond to keep ordering stable.
    """
    if count <= 0:
        raise ValueError("need a positive query count")
    if rate_per_sec <= 0:
        raise ValueError("need a positive rate")
    if rng is None:
        rng = seeded_rng(0)
    batch = batch_size_for_clients(clients)
    n_batches = (count + batch - 1) // batch
    mean_gap_ns = batch / rate_per_sec * SEC
    gaps = rng.exponential(mean_gap_ns, size=n_batches)
    # A truncated final batch carries fewer than `batch` queries, but the
    # gap preceding it was drawn for a full batch — the realized aggregate
    # rate undershoots `rate_per_sec` by count / (n_batches * batch),
    # badly so when the stream is only a few batches long.  Shrink that
    # one gap proportionally; when count is a batch multiple the factor
    # is exactly 1.0 and the stream is bit-identical to the old draw.
    last_size = count - (n_batches - 1) * batch
    gaps[-1] *= last_size / batch
    batch_starts = np.cumsum(gaps)
    # Spread each batch's queries over ~1 us (wire serialization).
    offsets = np.tile(np.arange(batch) * 1_000, n_batches)[:count]
    starts = np.repeat(batch_starts, batch)[:count]
    return np.sort((starts + offsets).astype(np.int64))


# -- vectorized queueing timelines --------------------------------------
#
# Every driver in this package (and the snapshot simulator) reduces to
# the single-server recurrence
#
#     end[i] = max(arrival[i], end[i-1]) + duration[i]
#
# which unrolls to ``end[i] = max_j<=i (arrival[j] + sum_{k=j..i} dur[k])``
# — a running maximum of ``arrival - shifted_cumsum`` plus the cumsum,
# i.e. one ``np.maximum.accumulate`` prefix scan.  All operations are
# int64 adds/maxima, so the vectorized schedule is *bit-identical* to
# the scalar loop, not merely close.


def busy_schedule(
    arrivals: np.ndarray,
    durations: np.ndarray,
    free_at: int = 0,
) -> np.ndarray:
    """Completion times of the single-server chain, exactly.

    ``arrivals`` and ``durations`` must be int64; ``free_at`` is the
    server's busy-until instant before the first event.  Returns the
    int64 ``end`` array of ``end = max(arrival, prev_end) + duration``
    with ``prev_end`` seeded at ``free_at``.  Starts are recovered as
    ``end - duration``.
    """
    if len(arrivals) == 0:
        return np.empty(0, dtype=np.int64)
    csum = np.cumsum(durations)
    shifted = np.empty_like(csum)
    shifted[0] = 0
    shifted[1:] = csum[:-1]
    peak = np.maximum.accumulate(arrivals - shifted)
    if free_at:
        np.maximum(peak, np.int64(free_at), out=peak)
    return peak + csum


def event_slots(arrivals: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Arrival index before which each scheduled event is processed.

    The scalar loops drain events (stalls, purges) with
    ``time <= arrival[i]`` before serving query ``i``; an event's slot
    is therefore the first arrival index at or after its time.  Events
    with ``slot == len(arrivals)`` fall past the stream end and are
    dropped, exactly as the scalar loops leave them unprocessed.
    """
    return np.searchsorted(arrivals, times, side="left")
