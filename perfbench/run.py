"""Run one workload of the repository benchmark; print its metrics.

    python3 perfbench/run.py --workload wire-kv --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer ones, from a run that times each layer's public
functions, plus the tracing overhead.  The line before it reports the
load generator's validity numbers and any failed checks.

Exit codes: 0 with a result, 2 when no result can be produced (for
instance outside a full checkout of the repository).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.common import SRC, TMP, BenchError, SpeedProbe  # noqa: E402

WORKLOADS = ("wire-kv", "wire-snapshot", "sim-cluster")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no program source at {SRC}/repro")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise BenchError(f"repro imported from {where}, not the checkout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_program()
        os.makedirs(TMP, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=TMP)
        try:
            # The benchmark, every process it starts and the speed probe
            # run on one CPU.  Split over two vCPUs, every wire request
            # wakes the other, idle vCPU, and on a shared VM host each
            # wake-up waits for the hypervisor: that showed as 10-27%
            # steal and 2.5x swings in throughput between runs.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
            with SpeedProbe() as probe:
                if args.workload.startswith("wire-"):
                    from perfbench import wire

                    with wire.IdleSpinner():
                        result = wire.run(args.workload, args.seed,
                                          args.seconds, bool(args.trace),
                                          workdir, probe=probe)
                else:
                    from perfbench import sim

                    result = sim.run(args.seed, args.seconds,
                                     bool(args.trace), probe=probe)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(TMP)
            except OSError:
                pass
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"validity": result.validity,
                      "problems": result.problems}))
    print(result.emit())
    return 0


if __name__ == "__main__":
    sys.exit(main())
