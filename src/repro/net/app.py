"""The asyncio TCP server tying backend, sessions, and bridge together.

One :class:`ReproServer` serves one :class:`~repro.kvs.server.
CommandServer` backend (plain or sharded) from a single event loop —
the same single-threaded serving model as Redis.  Each accepted
connection gets a :class:`~repro.net.core.NetSession` and an incremental
:class:`~repro.kvs.resp.Parser`; pipelined commands are
dispatched in arrival order and their replies written back in one batch.

After every dispatched command the handler calls
:meth:`~repro.net.bridge.ClockBridge.stall`, which *blocks* the event
loop for the scaled duration of any simulated kernel-busy window the
command incurred (a fork call, an ODF table fault, a proactive sync).
That is the paper's phenomenon on a real wire: under the default fork a
``BGSAVE`` freezes every connection at once; under Async-fork the same
command barely registers.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import EngineConfig
from repro.core.policy import FORK_METHODS, make_fork_engine
from repro.kernel.costs import DEFAULT_COSTS, CostModel
from repro.kvs.engine import KvEngine
from repro.kvs.resp import Parser, ProtocolError, RespError, encode
from repro.kvs.server import CommandServer, SavePoint
from repro.net.bridge import ClockBridge
from repro.net.core import NetSession, SessionClosed, ShutdownRequested
from repro.obs import tracer as obs
from repro.obs.registry import MetricsRegistry
from repro.units import PAGES_PER_GIB

READ_CHUNK = 64 * 1024

#: Payload bytes a BGSAVE child serializes per served command.  The
#: child shares the serving thread, so this is the extra work one
#: command can pick up from a snapshot in flight (about 1.2 ms on a
#: 2-vCPU VM).  Chosen on perfbench wire-snapshot: smaller slices cut
#: p99 further but land on more commands, which costs throughput and
#: p50; larger ones keep less of the p99 gain (256 / 384 / 512 KiB:
#: p99 4.7x / 4.1x / 3.4x lower than one-shot serialization, ops/s
#: -16% / -14% / -9%, over 5 runs each).
SNAPSHOT_SLICE_BYTES = 384 * 1024


@dataclass(frozen=True)
class WireCostModel(CostModel):
    """Cost model emulating a large instance on a small resident set.

    ``build_backend`` inflates the size-proportional fork-call constants
    (directory/PTE/PMD entry costs) by ``target_pages / resident_pages``
    so one fork call costs what it would on a ``sim_size_gb`` instance —
    without holding that much data (and without the Python-side cost of
    serializing it on the serving path).  Per-*event* costs stay
    physical: one ODF table fault or Async-fork proactive sync is still
    one real table's copy (~20 µs), as calibrated from Figure 11.  The
    aggregate consequence — fewer interruption events, each at physical
    cost — is the documented emulation tradeoff (DESIGN.md §15).
    """

    physical_table_fault_ns: int = DEFAULT_COSTS.table_fault_ns()

    def table_fault_ns(self) -> int:
        return self.physical_table_fault_ns


@dataclass
class ServerConfig:
    """Everything ``repro-serve`` (and the tests) configure."""

    engine: str = "async"
    host: str = "127.0.0.1"
    port: int = 7379
    #: Resident dataset populated at startup, so forks have real page
    #: tables to copy.  The emulated instance size below, not the
    #: resident byte count, decides the fork call's cost.  The child's
    #: snapshot serialization shares the serving thread (unlike a real
    #: child process) and costs about 5 ms per MiB on a 2-vCPU VM
    #: (21 ms at 4k x 1 KiB), which is why the server runs it in
    #: ``SNAPSHOT_SLICE_BYTES`` slices, one per served command.
    keys: int = 512
    value_size: int = 512
    #: Emulated instance size: fork-call costs are scaled as if the
    #: page tables covered this many GiB (the paper's size knob).
    sim_size_gb: float = 8.0
    #: Wall-ns slept per simulated kernel-busy ns (1.0 = real time).
    time_scale: float = 1.0
    min_stall_ns: int = 10_000
    aof: bool = False
    #: () disables spontaneous background saves; live demos trigger
    #: BGSAVE explicitly so the spike is attributable.
    save_points: tuple[SavePoint, ...] = ()
    #: Serve a whole simulated cluster behind a proxy frontend instead
    #: of one engine: keyed commands slot-route to shards, BGSAVE
    #: broadcasts, and HELLO reports cluster mode.
    proxy: bool = False
    #: Shards behind the proxy (``--proxy`` only).
    shards: int = 3
    #: Hard wall-clock lifetime; a watchdog *thread* (immune to a
    #: blocked event loop) force-exits the process after this many
    #: seconds.  0 disables.
    max_runtime_s: float = 0.0

    def __post_init__(self) -> None:
        if self.engine not in FORK_METHODS:
            valid = ", ".join(sorted(FORK_METHODS))
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of: {valid}"
            )


def emulation_costs(base: CostModel, inflation: float) -> WireCostModel:
    """Inflate the size-proportional fork-call constants by ``inflation``.

    Only the per-PTE and per-PMD terms scale: they are what grows
    linearly with instance size (§3.1).  Directory entries (PGD/PUD) and
    the fixed fork overhead stay physical — with that split, the three
    emulated fork calls land on the paper's reported magnitudes (Fig. 3
    default ~70 ms at 8 GiB; Fig. 22 Async-fork 0.61 ms / ODF 1.1 ms).
    """
    return WireCostModel(
        pte_entry_copy_ns=int(base.pte_entry_copy_ns * inflation),
        pmd_wp_set_ns=int(base.pmd_wp_set_ns * inflation),
        odf_share_pmd_ns=int(base.odf_share_pmd_ns * inflation),
        pmd_skip_ns=int(base.pmd_skip_ns * inflation),
        physical_table_fault_ns=base.table_fault_ns(),
    )


def build_backend(config: ServerConfig) -> CommandServer:
    """Build the simulated engine + command server for one config."""
    if config.proxy:
        return _build_proxy_backend(config)
    engine = KvEngine(
        fork_engine=make_fork_engine(config.engine),
        config=EngineConfig(
            value_size=config.value_size, aof_enabled=config.aof
        ),
        name=f"net-{config.engine}",
    )
    payload = bytes(config.value_size)
    for i in range(config.keys):
        engine.set(b"key:%012d" % i, payload)
    # The startup population is warm-up, not traffic: it must not count
    # toward save points or the first BGSAVE's dirty accounting.
    engine.store.dirty_since_save = 0
    if config.sim_size_gb > 0:
        target_pages = int(config.sim_size_gb * PAGES_PER_GIB)
        resident_pages = max(1, engine.process.mm.rss)
        inflation = max(1.0, target_pages / resident_pages)
        engine.fork_engine.costs = emulation_costs(
            engine.fork_engine.costs, inflation
        )
    return CommandServer(
        engine,
        save_points=config.save_points,
        snapshot_slice_bytes=SNAPSHOT_SLICE_BYTES,
    )


def _build_proxy_backend(config: ServerConfig) -> CommandServer:
    """Build a SimCluster fronted by a ProxyFrontend (``--proxy``)."""
    from repro.cluster.cluster import SimCluster
    from repro.proxy import ClusterProxy, ProxyFrontend

    cluster = SimCluster(
        n_shards=config.shards,
        method=config.engine,
        save_points=config.save_points,
    )
    payload = bytes(config.value_size)
    for i in range(config.keys):
        key = b"key:%012d" % i
        cluster.shard_for_key(key).engine.set(key, payload)
    for shard in cluster.shards:
        # Startup population is warm-up, not traffic (as standalone).
        shard.engine.store.dirty_since_save = 0
        if config.sim_size_gb > 0:
            # Each shard emulates an equal split of the instance size,
            # so one shard's BGSAVE costs what its share would.
            target_pages = int(
                config.sim_size_gb * PAGES_PER_GIB / config.shards
            )
            resident_pages = max(1, shard.engine.process.mm.rss)
            inflation = max(1.0, target_pages / resident_pages)
            shard.engine.fork_engine.costs = emulation_costs(
                shard.engine.fork_engine.costs, inflation
            )
    return ProxyFrontend(ClusterProxy(cluster))


class ReproServer:
    """One asyncio RESP server over one simulated backend."""

    def __init__(
        self,
        backend: CommandServer,
        bridge: ClockBridge,
        config: ServerConfig,
        wait_provider: Optional[Callable[[int, int], int]] = None,
    ) -> None:
        self.backend = backend
        self.bridge = bridge
        self.config = config
        self.wait_provider = wait_provider
        self.metrics = MetricsRegistry(prefix="net")
        self._accepted = self.metrics.counter("conn.accepted")
        self._closed = self.metrics.counter("conn.closed")
        self._active = self.metrics.gauge("conn.active")
        self._commands = self.metrics.counter("cmd.count")
        self._bytes_in = self.metrics.counter("bytes.in")
        self._bytes_out = self.metrics.counter("bytes.out")
        self._proto_errors = self.metrics.counter("errors.protocol")
        self._next_conn_id = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self.shutdown_event = asyncio.Event()
        self._watchdog: Optional[threading.Timer] = None
        backend.on_command = self._on_command
        self._chain_info(backend)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self.bridge.install()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        if self.config.max_runtime_s > 0:
            self._watchdog = threading.Timer(
                self.config.max_runtime_s, self._force_exit
            )
            self._watchdog.daemon = True
            self._watchdog.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real one."""
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_until_shutdown(self) -> None:
        """Serve until ``SHUTDOWN`` (or :meth:`stop`) is requested."""
        await self.shutdown_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the listener and every live connection."""
        self.shutdown_event.set()
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        # Give the connection handlers a chance to observe EOF and
        # return; tasks still pending at loop teardown get cancelled
        # mid-read and asyncio logs spurious CancelledErrors.
        for _ in range(100):
            if not self._writers:
                break
            await asyncio.sleep(0.01)
        self.bridge.uninstall()

    @staticmethod
    def _force_exit() -> None:  # pragma: no cover - hang protection
        """Last-resort exit for a wedged event loop (watchdog thread)."""
        import os

        os._exit(3)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def _on_command(self, name: bytes, args) -> None:
        self._commands.inc()

    def _chain_info(self, backend: CommandServer) -> None:
        previous = backend.info_extra

        def net_info() -> dict:
            fields = {} if previous is None else dict(previous())
            fields.update(
                {
                    "connected_clients": int(self._active.value),
                    "total_connections_received": self._accepted.value,
                    "total_commands_processed": self._commands.value,
                    "net_bridge_stalls": self.bridge.metrics.get(
                        "stalls"
                    ).value,
                    "net_bridge_stall_wall_ms": self.bridge.metrics.get(
                        "stall_wall_ns"
                    ).value // 1_000_000,
                }
            )
            return fields

        backend.info_extra = net_info

    # ------------------------------------------------------------------
    # per-connection handler
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_conn_id += 1
        session = NetSession(
            self.backend,
            conn_id=self._next_conn_id,
            wait_provider=self.wait_provider,
        )
        parser = Parser()
        self._accepted.inc()
        self._active.set(self._active.value + 1)
        self._writers.add(writer)
        start_sim_ns = self.backend.engine.clock.now
        bytes_in = bytes_out = 0
        try:
            while not self.shutdown_event.is_set():
                data = await reader.read(READ_CHUNK)
                if not data:
                    break
                bytes_in += len(data)
                self._bytes_in.inc(len(data))
                parser.feed(data)
                out = bytearray()
                closing = False
                try:
                    for command in parser:
                        reply = session.dispatch(command)
                        # The stall is synchronous on purpose: the
                        # serving thread is "in the kernel", so every
                        # connection on this loop waits it out.
                        self.bridge.stall()
                        out += encode(reply, session.proto)
                except ProtocolError as exc:
                    self._proto_errors.inc()
                    out += encode(
                        RespError(f"ERR Protocol error: {exc}"),
                        session.proto,
                    )
                    closing = True
                except SessionClosed as exc:
                    if exc.reply is not None:
                        out += encode(exc.reply, session.proto)
                    closing = True
                except ShutdownRequested:
                    # Redis closes without a reply and exits; the smoke
                    # harness treats the dropped connection + exit code
                    # 0 as the clean-shutdown signal.
                    self.shutdown_event.set()
                    break
                if out:
                    bytes_out += len(out)
                    self._bytes_out.inc(len(out))
                    writer.write(bytes(out))
                    await writer.drain()
                if closing:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            self._active.set(self._active.value - 1)
            self._closed.inc()
            if obs.ACTIVE:
                obs.emit(
                    f"net.conn.{session.conn_id}",
                    obs.CAT_NET,
                    start_sim_ns,
                    self.backend.engine.clock.now,
                    commands=session.commands,
                    bytes_in=bytes_in,
                    bytes_out=bytes_out,
                    proto=session.proto,
                )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def serve(
    config: ServerConfig,
    ready: Optional[Callable[[str, int], None]] = None,
) -> int:
    """Build everything and serve until shutdown; returns an exit code.

    ``ready(host, port)`` fires once the socket is bound — the CLI uses
    it for its ``--ready-file`` handshake.
    """
    backend = build_backend(config)
    bridge = ClockBridge(
        backend.engine.clock,
        scale=config.time_scale,
        min_stall_ns=config.min_stall_ns,
    )
    server = ReproServer(backend, bridge, config)

    async def _amain() -> None:
        host, port = await server.start()
        if ready is not None:
            ready(host, port)
        await server.serve_until_shutdown()

    asyncio.run(_amain())
    return 0
