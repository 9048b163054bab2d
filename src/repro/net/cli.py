"""``repro-serve``: the live-traffic RESP server entry point.

Examples::

    repro-serve --engine default --port 7379
    repro-serve --engine async --port 7380 --trace live.json
    redis-cli -p 7379 PING
    redis-cli -p 7379 BGSAVE          # default engine: watch p99 spike
    redis-benchmark -p 7379 -t set,get -c 50

CI hang protection: ``--ready-file`` writes ``host port`` once the
socket is bound (pair with ``--port 0`` for an ephemeral port), and
``--max-runtime`` arms a watchdog *thread* that force-exits with code 3
if the process outlives its budget — a wedged event loop cannot block
it, so a stuck server fails fast instead of eating a runner's 6-hour
default.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.core.policy import FORK_METHODS
from repro.kvs.server import DEFAULT_SAVE_POINTS
from repro.net.app import ServerConfig, serve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the simulated Async-fork engine over a real "
        "RESP socket (redis-cli / redis-benchmark compatible).",
    )
    parser.add_argument(
        "--engine", choices=sorted(FORK_METHODS), default="async",
        help="fork engine behind BGSAVE (default: async)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7379,
        help="TCP port; 0 binds an ephemeral port (default 7379)",
    )
    parser.add_argument(
        "--keys", type=int, default=512,
        help="resident keys populated at startup (default 512)",
    )
    parser.add_argument(
        "--value-size", type=int, default=512,
        help="bytes per resident value (default 512)",
    )
    parser.add_argument(
        "--sim-size-gb", type=float, default=8.0,
        help="emulated instance size in GiB: fork-call costs are scaled "
        "as if the page tables covered this much memory; 0 disables "
        "(default 8)",
    )
    parser.add_argument(
        "--time-scale", type=float, default=1.0,
        help="wall-ns slept per simulated kernel-busy ns (default 1)",
    )
    parser.add_argument(
        "--proxy", action="store_true",
        help="serve a sharded cluster behind a proxy frontend instead "
        "of one engine (keyed commands slot-route to shards)",
    )
    parser.add_argument(
        "--shards", type=int, default=3,
        help="shards behind the proxy; --proxy only (default 3)",
    )
    parser.add_argument(
        "--aof", action="store_true", help="enable the append-only file"
    )
    parser.add_argument(
        "--save", choices=("default", "none"), default="none",
        help="background save policy: 'default' arms Redis's save "
        "points, 'none' leaves BGSAVE manual (default)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export a Chrome-trace JSON (net + kernel spans) on exit",
    )
    parser.add_argument(
        "--ready-file", metavar="PATH", default=None,
        help="write 'host port' to PATH once the socket is bound",
    )
    parser.add_argument(
        "--max-runtime", type=float, default=0.0, metavar="SECONDS",
        help="force-exit (code 3) after this many wall seconds; "
        "0 disables (default)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ServerConfig(
        engine=args.engine,
        host=args.host,
        port=args.port,
        keys=args.keys,
        value_size=args.value_size,
        sim_size_gb=args.sim_size_gb,
        time_scale=args.time_scale,
        proxy=args.proxy,
        shards=args.shards,
        aof=args.aof,
        save_points=(
            DEFAULT_SAVE_POINTS if args.save == "default" else ()
        ),
        max_runtime_s=args.max_runtime,
    )

    collector = None
    if args.trace:
        from repro.obs import tracer as obs_tracer

        collector = obs_tracer.install(obs_tracer.Tracer())

    def ready(host: str, port: int) -> None:
        print(f"repro-serve: engine={args.engine} listening on "
              f"{host}:{port}", file=sys.stderr, flush=True)
        if args.ready_file:
            with open(args.ready_file, "w") as handle:
                handle.write(f"{host} {port}\n")

    # SIGTERM/SIGINT exit cleanly through KeyboardInterrupt-style
    # teardown; the CI job relies on exit code 0 for a clean shutdown.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        code = serve(config, ready=ready)
    except KeyboardInterrupt:
        code = 0
    finally:
        if collector is not None:
            from repro.obs import tracer as obs_tracer
            from repro.obs.export import export_chrome

            obs_tracer.uninstall(collector)
            export_chrome(collector, args.trace)
            print(f"wrote {args.trace} ({len(collector)} spans)",
                  file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
