#!/usr/bin/env python
"""End-to-end wire-latency smoke for the live RESP frontend (CI gate).

For each fork engine this script:

1. launches ``repro-serve`` as a *subprocess* on an ephemeral port
   (``--port 0`` + ``--ready-file`` handshake, ``--max-runtime`` hang
   protection so a wedged server kills itself instead of the job);
2. drives it with the same paced asyncio load loop as the ``figx-live``
   experiment — concurrent GET/SET workers plus a periodic ``BGSAVE``
   snapshotter — and records client-observed wall-clock latencies;
3. polls ``INFO`` until no BGSAVE is in progress and records the
   server's ``failed_background_jobs`` and ``rdb_last_bgsave_status``
   (a sliced save spans many commands, so a failure can land after the
   load stops);
4. sends ``SHUTDOWN`` and asserts the server exits cleanly (code 0).

It then asserts the paper's headline result on the wire: the default
fork's p99 **and** max latency exceed Async-fork's.  Per-engine
percentiles land in a CSV (uploaded as a CI artifact) so a failing run
can be diagnosed from the numbers alone.

Exit codes: 0 ok, 1 latency gate failed, 2 server misbehaved (unclean
exit, too few samples, no BGSAVE accepted, or a failed BGSAVE).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.experiments.figx_live import LoadStats, drive_load  # noqa: E402
from repro.net.client import wait_for_port  # noqa: E402

ENGINES = ("default", "odf", "async")


def launch_server(engine: str, ready_file: str, max_runtime_s: float):
    """Start ``repro-serve`` on an ephemeral port; return the process."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.net.cli",
            "--engine", engine,
            "--port", "0",
            "--ready-file", ready_file,
            "--max-runtime", str(max_runtime_s),
        ],
        env={**os.environ, "PYTHONPATH": "src"},
    )


def read_ready(ready_file: str, proc, timeout_s: float = 20.0):
    """Wait for the ready-file handshake; return (host, port)."""
    deadline = time.monotonic() + timeout_s  # lint: allow(wall-clock)
    while time.monotonic() < deadline:  # lint: allow(wall-clock)
        if proc.poll() is not None:
            raise RuntimeError(
                f"repro-serve exited early with code {proc.returncode}"
            )
        try:
            with open(ready_file) as handle:
                text = handle.read().strip()
            if text:
                host, port = text.split()
                return host, int(port)
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    raise TimeoutError("repro-serve never wrote its ready file")


#: INFO polls allowed for the last BGSAVE to be reaped (each poll is a
#: command, so each advances a sliced save by one step).
INFO_POLLS = 10_000


async def bgsave_outcome(client) -> dict[str, str]:
    """INFO fields once no BGSAVE is in progress."""
    for _ in range(INFO_POLLS):
        text = (await client.execute("INFO")).decode()
        fields = dict(
            line.split(":", 1) for line in text.splitlines() if ":" in line
        )
        if fields["rdb_bgsave_in_progress"] == "0":
            return fields
    raise RuntimeError("the last BGSAVE never finished")


async def smoke_engine(
    engine: str, duration_s: float, max_runtime_s: float
) -> tuple[LoadStats, dict[str, str], int]:
    """One engine's full lifecycle; returns (load stats, final INFO
    fields, exit code)."""
    with tempfile.TemporaryDirectory() as tmp:
        ready_file = os.path.join(tmp, "ready")
        proc = launch_server(engine, ready_file, max_runtime_s)
        try:
            host, port = read_ready(ready_file, proc)
            await wait_for_port(host, port)
            stats = await drive_load(
                host, port, duration_s, keys=512
            )
            # Clean shutdown: SHUTDOWN drops the connection without a
            # reply; the server must exit 0 on its own.
            from repro.net.client import AsyncRespClient

            control = await AsyncRespClient.connect(host, port)
            info = await bgsave_outcome(control)
            try:
                await control.execute("SHUTDOWN", "NOSAVE", check=False)
            except ConnectionError:
                pass
            await control.close()
            code = proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return stats, info, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=2.0, metavar="SECONDS",
        help="measured load window per engine (default 2.0)",
    )
    parser.add_argument(
        "--max-runtime", type=float, default=120.0, metavar="SECONDS",
        help="per-server watchdog budget passed to repro-serve",
    )
    parser.add_argument(
        "--csv", default="net-smoke.csv", metavar="PATH",
        help="latency digest output (CI artifact; default net-smoke.csv)",
    )
    args = parser.parse_args(argv)

    rows = {}
    for engine in ENGINES:
        print(f"== {engine}: launching repro-serve ==", flush=True)
        stats, info, code = asyncio.run(
            smoke_engine(engine, args.duration, args.max_runtime)
        )
        p50 = stats.percentile(0.50)
        p99 = stats.percentile(0.99)
        mx = max(stats.latencies_ms)
        failed_jobs = int(info["failed_background_jobs"])
        status = info["rdb_last_bgsave_status"]
        rows[engine] = (len(stats.latencies_ms), p50, p99, mx,
                        stats.bgsaves, failed_jobs, status, code)
        print(
            f"   {engine}: n={len(stats.latencies_ms)} p50={p50:.2f}ms "
            f"p99={p99:.2f}ms max={mx:.2f}ms bgsaves={stats.bgsaves} "
            f"failed_jobs={failed_jobs} last_bgsave={status} exit={code}",
            flush=True,
        )

    with open(args.csv, "w") as handle:
        handle.write(
            "engine,samples,p50_ms,p99_ms,max_ms,bgsaves,"
            "failed_background_jobs,rdb_last_bgsave_status,exit\n"
        )
        for engine in ENGINES:
            n, p50, p99, mx, bg, failed_jobs, status, code = rows[engine]
            handle.write(
                f"{engine},{n},{p50:.3f},{p99:.3f},{mx:.3f},{bg},"
                f"{failed_jobs},{status},{code}\n"
            )
    print(f"wrote {args.csv}")

    failures = []
    for engine in ENGINES:
        n, _, _, _, bg, failed_jobs, status, code = rows[engine]
        if code != 0:
            failures.append(f"{engine}: unclean shutdown (exit {code})")
        if n < 100:
            failures.append(f"{engine}: only {n} samples")
        if bg < 1:
            failures.append(f"{engine}: no BGSAVE completed")
        if failed_jobs != 0:
            failures.append(
                f"{engine}: failed_background_jobs={failed_jobs}"
            )
        if status != "ok":
            failures.append(f"{engine}: rdb_last_bgsave_status={status}")
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 2

    default_p99, async_p99 = rows["default"][2], rows["async"][2]
    default_max, async_max = rows["default"][3], rows["async"][3]
    if not (default_p99 > async_p99 and default_max > async_max):
        print(
            "FAIL wire-latency gate: expected default-fork p99/max > "
            f"Async-fork's, got p99 {default_p99:.2f} vs {async_p99:.2f}"
            f" ms, max {default_max:.2f} vs {async_max:.2f} ms",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: default p99 {default_p99:.2f}ms > async p99 "
        f"{async_p99:.2f}ms; default max {default_max:.2f}ms > "
        f"async max {async_max:.2f}ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
