#!/usr/bin/env python
"""Per-command cost of a sliced BGSAVE on the wire server's backend.

Builds the ``repro-serve`` backend (``net.app.build_backend``) with the
wire-snapshot benchmark's dataset (4,000 keys of 1 KiB) and drives it
in-process with a seeded 80% SET / 20% GET stream.  Every ``--every``
commands it sends a BGSAVE and times each command while the snapshot is
in flight.  Each of those commands is one serverCron tick, labelled by
what the tick did for the child:

* ``copy``: an Async-fork page-table copy step;
* ``start``: the last copy step (if any) plus opening the keyspace walk
  (each slice plans its own entries);
* ``slice``: one byte-budgeted slice (``net.app.SNAPSHOT_SLICE_BYTES``):
  plan its entries, read their pages; the last slice finishes the walk;
* ``reap``: ``SnapshotJob.finish``: make the file of the finished walk
  (it packs, joins and hashes its payload only when read, off the
  serving ticks), persist, retire the child.

It prints the median and max per label over the measured rounds (the
first ``--warmup`` rounds are dropped) and exits 1 if the median start
or reap tick costs more than ``--limit`` times the median slice.
Medians, because on a shared VM any single tick can take a few ms more
when another tenant runs.

Usage: ``PYTHONPATH=src python scripts/snapshot_ticks.py [--engine
async] [--rounds 20] [--limit 2.0]``
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.determinism import seeded_random  # noqa: E402
from repro.net.app import (  # noqa: E402
    SNAPSHOT_SLICE_BYTES,
    ServerConfig,
    build_backend,
)

LABELS = ("copy", "start", "slice", "reap")


def snapshot_ticks(backend, next_command) -> list[tuple[str, float]]:
    """One BGSAVE: the (label, seconds) of every command it spans."""
    backend.handle([b"BGSAVE"])
    job = backend.engine.active_job
    costs, copied = [], []
    while backend.engine.active_job is not None:
        command = next_command()
        start = time.perf_counter()  # lint: allow(wall-clock)
        backend.handle(command)
        costs.append(time.perf_counter() - start)  # lint: allow(wall-clock)
        copied.append(job.child_copy_done)
    # Ticks before the copy finished are copy steps; the tick that
    # finished it (or the first tick, for an engine with nothing to
    # copy) also opened the walk; the last one reaped.
    opened = copied.index(True)
    labels = ["copy"] * opened + ["start"]
    labels += ["slice"] * (len(costs) - opened - 2) + ["reap"]
    return list(zip(labels, costs))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", default="async",
                        choices=("default", "odf", "async"))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--every", type=int, default=100,
                        help="commands between BGSAVEs (default 100)")
    parser.add_argument("--limit", type=float, default=2.0,
                        help="max tick / median slice (default 2.0)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    backend = build_backend(
        ServerConfig(engine=args.engine, keys=4000, value_size=1024)
    )
    rng = seeded_random(args.seed)
    value = bytes(1024)

    def next_command() -> list[bytes]:
        key = b"key:%012d" % rng.randrange(4000)
        if rng.random() < 0.8:
            return [b"SET", key, value]
        return [b"GET", key]

    ticks: dict[str, list[float]] = {label: [] for label in LABELS}
    for round_no in range(args.warmup + args.rounds):
        spanned = snapshot_ticks(backend, next_command)
        for _ in range(args.every - len(spanned)):
            backend.handle(next_command())
        if round_no >= args.warmup:
            for label, cost in spanned:
                ticks[label].append(cost)

    print(f"engine={args.engine} slice={SNAPSHOT_SLICE_BYTES} B "
          f"rounds={args.rounds}")
    medians = {
        label: statistics.median(costs)
        for label, costs in ticks.items()
        if costs
    }
    for label, median in medians.items():
        print(f"  {label:5s} n={len(ticks[label]):4d} "
              f"median={median * 1e3:6.2f} ms "
              f"max={max(ticks[label]) * 1e3:6.2f} ms")
    steady = medians["slice"]
    worst = max(LABELS[1:], key=lambda label: medians[label])
    ratio = medians[worst] / steady
    print(f"costliest serialization tick: {worst}, median "
          f"{medians[worst] * 1e3:.2f} ms = {ratio:.2f}x the median slice "
          f"(limit {args.limit:.2f}x)")
    return 0 if ratio <= args.limit else 1


if __name__ == "__main__":
    sys.exit(main())
