"""figx-live: the paper's latency spike measured on a real TCP wire.

Every other experiment reads the *simulated* clock.  This one closes the
loop end to end: it boots :class:`~repro.net.app.ReproServer` on a real
socket, drives it with concurrent asyncio RESP clients issuing paced
GET/SET traffic while a snapshotter fires ``BGSAVE`` periodically, and
measures **wall-clock** round-trip latency at the client — the number a
``redis-benchmark`` user would see.

The clock bridge converts each simulated kernel-busy window (the fork
call, scaled to ``sim_size_gb`` by the cost emulation) into a real stall
of the server's event loop, so the default fork's page-table copy shows
up as a tens-of-milliseconds p99/p100 spike on the wire while
Async-fork's sub-millisecond call stays near the noise floor (Figs. 1,
9, 10 — here reproduced with real sockets instead of simulated
queueing).

The server runs in its *own thread* with its own event loop.  That is
not an implementation detail: if clients shared the server's loop, a
stall would freeze their clocks too and the spike would vanish from the
percentiles (coordinated omission).  With an independent client loop,
every request issued while the server is "in the kernel" measures the
remainder of the stall — exactly what an external ``redis-cli`` would
see.  The CI ``smoke`` job's wire gate runs the same load loop against an
out-of-process ``repro-serve``.

Because it measures the host clock over real sockets, this experiment is
*not* byte-deterministic: latencies vary run to run; only the shape
checks (ordering, spike magnitude) are stable.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass

from repro.config import SimulationProfile
from repro.experiments.registry import register
from repro.metrics.report import ExperimentReport, Table
from repro.net.app import ReproServer, ServerConfig, build_backend
from repro.net.bridge import ClockBridge
from repro.net.client import AsyncRespClient

#: Concurrent closed-loop clients (the paper's latency figures use
#: small client counts; 8 keeps a 2-vCPU CI runner honest).
CLIENTS = 8
#: Per-client think time between requests; paces the load so samples
#: keep arriving *during* a fork stall instead of piling up behind it.
THINK_S = 0.01
#: Period of the background snapshotter's BGSAVE attempts.
BGSAVE_PERIOD_S = 0.25


@dataclass
class LoadStats:
    """Client-side digest of one paced load run."""

    latencies_ms: list
    bgsaves: int

    def percentile(self, q: float) -> float:
        ms = sorted(self.latencies_ms)
        return ms[min(len(ms) - 1, int(len(ms) * q))]


@dataclass
class LiveResult:
    """Wire-latency digest for one engine."""

    engine: str
    samples: int
    p50_ms: float
    p99_ms: float
    max_ms: float
    bgsaves: int
    stalls: int
    stall_wall_ms: float


async def drive_load(
    host: str,
    port: int,
    duration_s: float,
    keys: int,
    clients: int = CLIENTS,
    think_s: float = THINK_S,
    bgsave_period_s: float = BGSAVE_PERIOD_S,
) -> LoadStats:
    """Paced GET/SET workers + a periodic BGSAVE snapshotter.

    Also used by ``scripts/net_smoke.py`` against an out-of-process
    ``repro-serve``.  Returns every client-observed round-trip latency.
    """
    latencies: list = []
    stop = asyncio.Event()
    bgsaves = 0

    async def worker(index: int) -> None:
        client = await AsyncRespClient.connect(host, port)
        n = 0
        while not stop.is_set():
            t0 = time.perf_counter()  # lint: allow(wall-clock)
            if n % 2:
                await client.execute(
                    "SET", f"live:{index}:{n % 64}", b"x" * 64
                )
            else:
                await client.execute("GET", b"key:%012d" % (n % keys))
            wall_ms = (
                time.perf_counter() - t0  # lint: allow(wall-clock)
            ) * 1e3
            latencies.append(wall_ms)
            n += 1
            await asyncio.sleep(think_s)
        await client.close()

    async def snapshotter() -> None:
        nonlocal bgsaves
        client = await AsyncRespClient.connect(host, port)
        while not stop.is_set():
            reply = await client.execute("BGSAVE", check=False)
            if not isinstance(reply, Exception):
                bgsaves += 1
            await asyncio.sleep(bgsave_period_s)
        await client.close()

    workers = [asyncio.create_task(worker(i)) for i in range(clients)]
    await asyncio.sleep(0.15)  # warm up before the first fork
    snap = asyncio.create_task(snapshotter())
    await asyncio.sleep(duration_s)
    stop.set()
    await asyncio.gather(*workers, snap)
    return LoadStats(latencies_ms=latencies, bgsaves=bgsaves)


def measure_engine(
    engine: str, duration_s: float, config: ServerConfig = None
) -> LiveResult:
    """Serve one engine (own thread, own loop); measure from outside."""
    if config is None:
        config = ServerConfig(engine=engine, port=0)
    backend = build_backend(config)
    bridge = ClockBridge(
        backend.engine.clock,
        scale=config.time_scale,
        min_stall_ns=config.min_stall_ns,
    )
    server = ReproServer(backend, bridge, config)
    bound = threading.Event()
    address: dict = {}

    def _serve_thread() -> None:
        async def _amain() -> None:
            address["hp"] = await server.start()
            bound.set()
            await server.serve_until_shutdown()

        asyncio.run(_amain())

    thread = threading.Thread(
        target=_serve_thread, name=f"figx-live-{engine}", daemon=True
    )
    thread.start()
    if not bound.wait(timeout=10.0):
        raise RuntimeError(f"{engine}: server failed to bind")
    host, port = address["hp"]

    async def _drive() -> LoadStats:
        stats = await drive_load(host, port, duration_s, config.keys)
        # SHUTDOWN drops the connection without a reply and stops the
        # server loop — the polite way to end the thread.
        control = await AsyncRespClient.connect(host, port)
        try:
            await control.execute("SHUTDOWN", "NOSAVE", check=False)
        except ConnectionError:
            pass
        await control.close()
        return stats

    stats = asyncio.run(_drive())
    thread.join(timeout=10.0)
    if thread.is_alive():
        raise RuntimeError(f"{engine}: server thread failed to stop")

    return LiveResult(
        engine=engine,
        samples=len(stats.latencies_ms),
        p50_ms=stats.percentile(0.50),
        p99_ms=stats.percentile(0.99),
        max_ms=max(stats.latencies_ms),
        bgsaves=stats.bgsaves,
        stalls=bridge.metrics.get("stalls").value,
        stall_wall_ms=bridge.metrics.get("stall_wall_ns").value / 1e6,
    )


def _duration_for(profile: SimulationProfile) -> float:
    # Wall-clock budget per engine: long enough for several BGSAVE
    # cycles, short enough for the tier-1 suite.
    if profile.name in ("test", "tiny"):
        return 1.2
    if profile.name == "quick":
        return 2.0
    return 4.0


@register("figx-live", "Wire latency under BGSAVE on a live RESP server")
def run(profile: SimulationProfile) -> ExperimentReport:
    """Serve each engine over TCP; compare client-observed latency."""
    report = ExperimentReport(
        "figx-live",
        "client-side wall-clock latency on a real socket, per fork "
        "engine, with periodic BGSAVE",
    )
    duration = _duration_for(profile)
    results = {
        engine: measure_engine(engine, duration)
        for engine in ("default", "odf", "async")
    }

    table = Table(
        "live wire latency (ms, wall clock) — "
        f"{CLIENTS} clients, BGSAVE every {BGSAVE_PERIOD_S:.2f}s",
        [
            "engine", "samples", "p50", "p99", "max",
            "bgsaves", "fork stalls", "stall wall ms",
        ],
    )
    for engine in ("default", "odf", "async"):
        r = results[engine]
        table.add_row(
            r.engine, r.samples, r.p50_ms, r.p99_ms, r.max_ms,
            r.bgsaves, r.stalls, r.stall_wall_ms,
        )
    report.add_table(table)

    default, odf, asy = (
        results["default"], results["odf"], results["async"]
    )
    report.check(
        "every engine completed BGSAVEs under load",
        all(r.bgsaves >= 1 for r in results.values()),
    )
    report.check(
        "default-fork wire p99 exceeds Async-fork's",
        default.p99_ms > asy.p99_ms,
    )
    report.check(
        "default-fork wire p99 exceeds ODF's",
        default.p99_ms > odf.p99_ms,
    )
    report.check(
        "the default fork stalls the wire for more total wall time",
        default.stall_wall_ms > asy.stall_wall_ms
        and default.stall_wall_ms > odf.stall_wall_ms,
    )
    report.check(
        "a default-fork stall is visible at the max (>= 10 ms spike)",
        default.max_ms >= 10.0,
    )
    return report
