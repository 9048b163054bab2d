"""The asyncio TCP server tying backend, sessions, and bridge together.

One :class:`ReproServer` serves one :class:`~repro.kvs.server.
CommandServer` backend (plain or sharded) from a single event loop —
the same single-threaded serving model as Redis.  Each accepted
connection gets one small :class:`asyncio.Protocol` (``_Connection``)
holding a :class:`~repro.net.core.NetSession` and an incremental
:class:`~repro.kvs.resp.Parser`.  Every chunk the socket delivers is
parsed at once; its complete commands are dispatched in arrival order
and their replies written back in ``WRITE_HIGH_WATER``-sized writes.
When a client stops reading its replies and the transport's buffer
passes that mark, the connection stops dispatching and reading until
the buffer drains (backpressure).

After every dispatched command the connection calls
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

#: How long :meth:`ReproServer.stop` lets closing connections flush
#: their pending replies before it drops them.
STOP_GRACE_S = 1.0

#: High-water mark of each connection's write buffer, and the reply
#: bytes it batches per write: what a client that does not read its
#: replies leaves queued stays near this, whatever one read delivered.
WRITE_HIGH_WATER = 64 * 1024

#: Payload bytes a BGSAVE child serializes per served command.  The
#: child shares the serving thread, so this is the extra work one
#: command can pick up from a snapshot in flight: planning the slice's
#: entries and reading their pages, about 0.2 ms on a 2-vCPU VM, since
#: a slice keeps references to the child's page images and packs
#: nothing (DESIGN.md §15).  Chosen on perfbench wire-snapshot when
#: slices still copied and packed every value: smaller slices cut p99
#: further but land on more commands, which costs throughput and p50;
#: larger ones keep less of the p99 gain (256 / 384 / 512 KiB: p99
#: 4.7x / 4.1x / 3.4x lower than one-shot serialization, ops/s -16% /
#: -14% / -9%, over 5 runs each).
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
    #: child process) and costs about 0.6 ms per MiB on a 2-vCPU VM
    #: (2.5 ms at 4k x 1 KiB; it packs nothing, the file packs when
    #: read), which the server spreads over ``SNAPSHOT_SLICE_BYTES``
    #: slices, one per served command.
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
        self._connections: set[_Connection] = set()
        self.shutdown_event = asyncio.Event()
        self._watchdog: Optional[threading.Timer] = None
        self._chain_info(backend)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self.bridge.install()
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.config.host, self.config.port
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
        connections = list(self._connections)
        for conn in connections:
            conn.transport.close()
        if connections:
            # A closing transport flushes its replies first; one whose
            # peer never reads them is dropped after the grace period.
            await asyncio.wait(
                [conn.lost for conn in connections], timeout=STOP_GRACE_S
            )
            stuck = [conn for conn in connections if not conn.lost.done()]
            for conn in stuck:
                conn.transport.abort()
            if stuck:
                await asyncio.wait([conn.lost for conn in stuck])
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self.bridge.uninstall()

    @staticmethod
    def _force_exit() -> None:  # pragma: no cover - hang protection
        """Last-resort exit for a wedged event loop (watchdog thread)."""
        import os

        os._exit(3)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

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


class _Connection(asyncio.Protocol):
    """One client connection: parse, dispatch, stall, reply."""

    def __init__(self, server: ReproServer) -> None:
        self.server = server
        self.parser = Parser()
        self.transport: Optional[asyncio.Transport] = None
        self.session: Optional[NetSession] = None
        self.start_sim_ns = 0
        self.bytes_in = self.bytes_out = 0
        #: Set while the write buffer is over its high-water mark.
        self.paused = False
        #: Resolved by :meth:`connection_lost`.
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        server = self.server
        server._next_conn_id += 1
        self.transport = transport
        transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        self.session = NetSession(
            server.backend,
            conn_id=server._next_conn_id,
            wait_provider=server.wait_provider,
        )
        self.start_sim_ns = server.backend.engine.clock.now
        server._connections.add(self)
        server._accepted.inc()
        server._active.set(server._active.value + 1)

    def data_received(self, data: bytes) -> None:
        self.bytes_in += len(data)
        self.server._bytes_in.inc(len(data))
        self.parser.feed(data)
        self._serve()

    def _serve(self) -> None:
        """Dispatch the parsed commands in order and write their replies;
        stop early if a write pauses the transport."""
        server = self.server
        session = self.session
        replies = []
        pending = 0
        closing = False
        try:
            for command in self.parser:
                server._commands.inc()
                reply = session.dispatch(command)
                # The stall is synchronous on purpose: the serving
                # thread is "in the kernel", so every connection on this
                # loop waits it out.
                server.bridge.stall()
                out = encode(reply, session.proto)
                replies.append(out)
                pending += len(out)
                if pending > WRITE_HIGH_WATER:
                    self._write(replies)
                    replies, pending = [], 0
                    if self.paused:
                        break
        except ProtocolError as exc:
            server._proto_errors.inc()
            replies.append(
                encode(RespError(f"ERR Protocol error: {exc}"), session.proto)
            )
            closing = True
        except SessionClosed as exc:
            if exc.reply is not None:
                replies.append(encode(exc.reply, session.proto))
            closing = True
        except ShutdownRequested:
            # Redis closes without a reply and exits; the smoke harness
            # treats the dropped connection + exit code 0 as the
            # clean-shutdown signal.
            server.shutdown_event.set()
            self.transport.close()
            return
        if replies:
            self._write(replies)
        if closing:
            self.transport.close()

    def _write(self, replies: list) -> None:
        out = b"".join(replies)
        self.bytes_out += len(out)
        self.server._bytes_out.inc(len(out))
        self.transport.write(out)

    # A client that does not read its replies stops being served: the
    # transport calls these as its write buffer crosses the high and
    # low water marks.
    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        # On the next loop turn: a QUIT among the leftovers closes the
        # transport, and closing from inside the transport's own write
        # callback would report the lost connection twice.
        asyncio.get_running_loop().call_soon(self._resume)

    def _resume(self) -> None:
        """Serve the commands a pause left in the parser, then read."""
        if self.paused or self.transport.is_closing():
            return
        self._serve()
        if not self.paused:
            self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        server = self.server
        server._connections.discard(self)
        server._active.set(server._active.value - 1)
        server._closed.inc()
        if obs.ACTIVE:
            obs.emit(
                f"net.conn.{self.session.conn_id}",
                obs.CAT_NET,
                self.start_sim_ns,
                server.backend.engine.clock.now,
                commands=self.session.commands,
                bytes_in=self.bytes_in,
                bytes_out=self.bytes_out,
                proto=self.session.proto,
            )
        self.lost.set_result(None)


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
