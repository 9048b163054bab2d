#!/usr/bin/env python
"""Live-reshard smoke for CI: drain 25% of slots under live traffic.

For each fork engine this script runs the figx-reshard core once (and
once more to confirm the seeded replay is byte-identical): a 4-shard
cluster drains shard 0's 4096 slots key-by-key while the open-loop
stream keeps reading and writing, with an all-shard BGSAVE round fired
mid-migration.  It asserts the PR's correctness and shape claims:

* the drain completes mid-stream (all 4096 slots finalized);
* the read-your-writes oracle sees zero lost and zero stale reads;
* clients chased moving keys through ASK at least once;
* the default fork spikes inside the migration window while
  ODF/Async-fork stay an order of magnitude below it;
* a replay from the same seed reproduces the run bit-for-bit.

Per-engine phase percentiles land in a CSV (uploaded as a CI artifact)
so a failing run can be diagnosed from the numbers alone.

Exit codes: 0 ok, 1 a gate failed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.core.policy import FORK_METHODS  # noqa: E402
from repro.config import SimulationProfile  # noqa: E402
from repro.experiments.figx_reshard import _reshard_run  # noqa: E402

#: Small fixed profile: ~2k routed commands per run, seconds per engine.
PROFILE = SimulationProfile(
    name="reshard-smoke", query_count=120_000, persist_speedup=32.0
)
SEED = 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv", default="", help="write per-engine rows")
    args = parser.parse_args(argv)

    rows = []
    failures = []
    for method in FORK_METHODS:
        outcome = _reshard_run(PROFILE, method, SEED)
        replay = _reshard_run(PROFILE, method, SEED)
        rows.append(outcome)
        print(
            f"{method:8s} p99 base/reshard/after = "
            f"{outcome['p99_base_ms']:.3f} / {outcome['p99_in_ms']:.3f} / "
            f"{outcome['p99_post_ms']:.3f} ms  "
            f"keys={outcome['keys_moved']} ask={outcome['ask']} "
            f"moved={outcome['moved']} lost={outcome['lost']} "
            f"stale={outcome['stale']}"
        )
        if outcome["slots_finalized"] != 4096:
            failures.append(f"{method}: drain incomplete")
        if outcome["lost"] or outcome["stale"]:
            failures.append(
                f"{method}: oracle violated "
                f"(lost={outcome['lost']} stale={outcome['stale']})"
            )
        if outcome["ask"] == 0:
            failures.append(f"{method}: no ASK redirect ever happened")
        if outcome["digest"] != replay["digest"]:
            failures.append(f"{method}: replay diverged from its seed")

    by_method = {row["method"]: row for row in rows}
    if not (
        by_method["async"]["p99_in_ms"]
        < 0.1 * by_method["default"]["p99_in_ms"]
        and by_method["odf"]["p99_in_ms"]
        < 0.1 * by_method["default"]["p99_in_ms"]
    ):
        failures.append(
            "latency gate: default's reshard-window p99 is not 10x above "
            "ODF/Async-fork"
        )

    if args.csv:
        fields = [
            "method", "seed", "p99_base_ms", "p99_in_ms", "p99_post_ms",
            "keys_moved", "slots_finalized", "reads_checked", "lost",
            "stale", "ask", "moved", "refreshes", "snapshots", "digest",
        ]
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: row[k] for k in fields})

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("reshard smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
