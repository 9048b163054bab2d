"""End-to-end tests: real sockets against the asyncio RESP server.

Each test runs its own event loop (``asyncio.run``): a ReproServer on an
ephemeral port, AsyncRespClient connections driving it, everything torn
down before the assertion dust settles.  The latency-contrast test runs
the server in its own thread so the client's clock keeps ticking while
the server's loop is stalled (see figx_live's coordinated-omission
note).
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.core.policy import FORK_METHODS
from repro.kvs.resp import RespError, SimpleString, encode, encode_command
from repro.net.app import (
    SNAPSHOT_SLICE_BYTES,
    ReproServer,
    ServerConfig,
    WireCostModel,
    build_backend,
)
from repro.net.bridge import ClockBridge
from repro.net.client import AsyncRespClient, ReplyError

#: Tiny, fast server config for functional tests: no cost emulation
#: (sim_size_gb=0) and no wall stalls worth noticing.
FAST = dict(port=0, keys=64, value_size=64, sim_size_gb=0.0)


def make_server(engine: str = "async", **overrides) -> ReproServer:
    config = ServerConfig(engine=engine, **{**FAST, **overrides})
    backend = build_backend(config)
    bridge = ClockBridge(
        backend.engine.clock,
        scale=config.time_scale,
        min_stall_ns=config.min_stall_ns,
    )
    return ReproServer(backend, bridge, config)


def serve_and_run(server: ReproServer, scenario) -> object:
    """Start ``server``, run ``scenario(host, port)``, stop, return result."""

    async def _main():
        host, port = await server.start()
        try:
            return await scenario(host, port)
        finally:
            await server.stop()

    return asyncio.run(_main())


class TestCommands:
    @pytest.mark.parametrize("engine", sorted(FORK_METHODS))
    def test_ping_set_get_del_bgsave(self, engine):
        server = make_server(engine)

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            assert await client.execute("PING") == SimpleString(b"PONG")
            assert await client.execute("SET", "k", "v") == (
                SimpleString(b"OK")
            )
            assert await client.execute("GET", "k") == b"v"
            assert await client.execute("DEL", "k") == 1
            assert await client.execute("GET", "k") is None
            assert await client.execute("BGSAVE") == SimpleString(
                b"Background saving started"
            )
            # Drive commands until the background child is reaped.
            for _ in range(64):
                await client.execute("PING")
                if server.backend.engine.active_job is None:
                    break
            assert server.backend.engine.active_job is None
            # LASTSAVE reports whole sim-seconds (0 at tiny sim times);
            # the ns-level record must show the completed save.
            assert await client.execute("LASTSAVE") >= 0
            assert server.backend._last_save_ns > 0
            await client.close(quit=True)

        serve_and_run(server, scenario)

    def test_error_reply_keeps_connection(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            with pytest.raises(ReplyError, match="unknown command"):
                await client.execute("NOSUCHCMD")
            reply = await client.execute("NOSUCHCMD", check=False)
            assert isinstance(reply, RespError)
            assert await client.execute("PING") == SimpleString(b"PONG")
            await client.close()

        serve_and_run(server, scenario)

    def test_short_restore_payload_keeps_connection(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            await client.send_raw(
                encode_command("RESTORE", "k", "0", b"SRDB")
                + encode_command("PING")
            )
            restored = await asyncio.wait_for(client.read_reply(), 5)
            pong = await asyncio.wait_for(client.read_reply(), 5)
            await client.close()
            return restored, pong

        restored, pong = serve_and_run(server, scenario)
        assert isinstance(restored, RespError)
        assert restored.message == (
            "ERR Bad data format: DUMP payload did not verify"
        )
        assert pong == SimpleString(b"PONG")

    def test_inline_commands(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            await client.send_raw(b"PING\r\n")
            assert await client.read_reply() == SimpleString(b"PONG")
            await client.send_raw(b"SET inline-key inline-value\r\n")
            assert await client.read_reply() == SimpleString(b"OK")
            assert await client.execute("GET", "inline-key") == (
                b"inline-value"
            )
            await client.close()

        serve_and_run(server, scenario)

    def test_pipelining(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            replies = await client.pipeline(
                [("SET", f"p{i}", f"v{i}") for i in range(10)]
                + [("GET", f"p{i}") for i in range(10)]
            )
            assert replies[:10] == [SimpleString(b"OK")] * 10
            assert replies[10:] == [b"v%d" % i for i in range(10)]
            await client.close()

        serve_and_run(server, scenario)

    def test_wait_and_info(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            assert await client.execute("WAIT", 0, 100) == 0
            info = await client.execute("INFO")
            text = info.decode()
            assert "connected_clients:1" in text
            assert "net_bridge_stalls:" in text
            await client.close()

        serve_and_run(server, scenario)

    def test_info_counts_every_dispatched_command(self):
        """``total_commands_processed`` counts connection-scoped
        commands too, as Redis's ``stat_numcommands`` does."""
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port, proto=3)
            assert await client.execute("CLIENT", "SETNAME", "counted") == (
                SimpleString(b"OK")
            )
            assert await client.execute("PING") == SimpleString(b"PONG")
            info = (await client.execute("INFO")).decode()
            assert "total_commands_processed:4\r\n" in info
            await client.close()

        serve_and_run(server, scenario)

    def test_standalone_cluster_replies_keep_connection(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            reply = await client.execute("CLUSTER", "SLOTS", check=False)
            assert isinstance(reply, RespError)
            assert reply.message == (
                "ERR This instance has cluster support disabled"
            )
            info = await client.execute("cluster", "info")
            assert info.startswith(b"cluster_enabled:0\r\n")
            assert await client.execute("PING") == SimpleString(b"PONG")
            await client.close()

        serve_and_run(server, scenario)


class TestHello:
    def test_hello_3_switches_proto(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            hello = await client.execute("HELLO", 3)
            client.proto = 3
            assert hello[b"proto"] == 3
            assert hello[b"server"] == b"repro-asyncfork"
            assert hello[b"role"] == b"master"
            # RESP3 nil is the `_` frame; the client decodes it to None.
            assert await client.execute("GET", "missing") is None
            await client.close()

        serve_and_run(server, scenario)

    def test_hello_rejects_unknown_proto(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            with pytest.raises(ReplyError, match="NOPROTO"):
                await client.execute("HELLO", 4)
            await client.close()

        serve_and_run(server, scenario)

    def test_connect_helper_upgrades(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port, proto=3)
            assert client.proto == 3
            assert await client.execute("PING") == SimpleString(b"PONG")
            await client.close()

        serve_and_run(server, scenario)


class TestProtocolErrors:
    def test_bad_frame_gets_error_then_close(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            await client.send_raw(b"*abc\r\n")
            reply = await client.read_reply()
            assert isinstance(reply, RespError)
            assert "Protocol error" in reply.message
            with pytest.raises(ConnectionError):
                await client.execute("PING")
            await client.close()

        serve_and_run(server, scenario)


class TestShutdown:
    def test_shutdown_command_stops_server(self):
        server = make_server()

        async def _main():
            host, port = await server.start()
            client = await AsyncRespClient.connect(host, port)
            serve_task = asyncio.create_task(
                server.serve_until_shutdown()
            )
            try:
                await client.execute("SHUTDOWN", "NOSAVE")
            except ConnectionError:
                pass  # the server closes without a reply, like Redis
            await asyncio.wait_for(serve_task, timeout=5)
            assert server.shutdown_event.is_set()
            await client.close()

        asyncio.run(_main())

    def test_quit_closes_only_the_connection(self):
        server = make_server()

        async def scenario(host, port):
            first = await AsyncRespClient.connect(host, port)
            assert await first.execute("QUIT", check=False) == (
                SimpleString(b"OK")
            )
            await first.close()
            second = await AsyncRespClient.connect(host, port)
            assert await second.execute("PING") == SimpleString(b"PONG")
            await second.close()
            assert not server.shutdown_event.is_set()

        serve_and_run(server, scenario)


class TestBackpressure:
    """A client that never reads its replies stops being read from."""

    BIG = 64 * 1024
    #: GETs of the large values sent first: ~6 MB of replies, more than
    #: the socket buffers take, so the rest backs up in the server.
    FIRST = 96
    #: GETs of small values queued behind them.
    MORE = 2000

    def test_unread_replies_pause_reading_that_connection(self):
        server = make_server()
        values = {
            **{b"big:%d" % i: bytes([65 + i]) * self.BIG for i in range(4)},
            **{b"small:%d" % i: b"s%d" % i for i in range(8)},
        }
        keys = [b"big:%d" % (i % 4) for i in range(self.FIRST)]
        keys += [b"small:%d" % (i % 8) for i in range(self.MORE)]
        first = b"".join(encode_command("GET", k) for k in keys[: self.FIRST])
        more = b"".join(encode_command("GET", k) for k in keys[self.FIRST :])
        expected = b"".join(encode(values[k]) for k in keys)

        async def scenario(host, port):
            loop = asyncio.get_running_loop()
            other = await AsyncRespClient.connect(host, port)
            for key, value in values.items():
                await other.execute("SET", key, value)
            raw = socket.socket()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            raw.setblocking(False)
            try:
                await loop.sock_connect(raw, (host, port))
                bytes_in = server.metrics.get("bytes.in")
                read_before = bytes_in.value
                await loop.sock_sendall(raw, first)
                await asyncio.sleep(0.2)
                queued = len(first)
                while queued < len(first) + len(more):
                    try:
                        queued += raw.send(more[queued - len(first) :])
                    except BlockingIOError:
                        break
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.2)
                read = bytes_in.value - read_before
                assert read <= len(first)
                assert 4 * read < queued

                started = time.perf_counter()
                assert await asyncio.wait_for(
                    other.execute("PING"), timeout=2.0
                ) == SimpleString(b"PONG")
                assert time.perf_counter() - started < 0.5

                rest = asyncio.ensure_future(
                    loop.sock_sendall(raw, more[queued - len(first) :])
                )
                received = bytearray()
                while len(received) < len(expected):
                    chunk = await asyncio.wait_for(
                        loop.sock_recv(raw, 256 * 1024), timeout=5.0
                    )
                    assert chunk, "server closed the connection"
                    received += chunk
                await rest
                assert received == expected
            finally:
                raw.close()
            await other.close()

        serve_and_run(server, scenario)


    def test_unread_replies_stay_bounded(self):
        """One send of 500 GETs of a 64 KiB value that the client never
        reads: the connection stops dispatching once its write buffer
        passes the high-water mark instead of queueing ~32 MB of
        replies, and serves the rest (here ending in a QUIT) once the
        client reads."""
        server = make_server()
        count = 500
        request = encode_command("GET", "big") * count
        request += encode_command("QUIT")
        expected = encode(b"v" * self.BIG) * count
        expected += encode(SimpleString(b"OK"))

        async def scenario(host, port):
            loop = asyncio.get_running_loop()
            other = await AsyncRespClient.connect(host, port)
            await other.execute("SET", "big", b"v" * self.BIG)
            raw = socket.socket()
            raw.setblocking(False)
            try:
                await loop.sock_connect(raw, (host, port))
                await loop.sock_sendall(raw, request)
                await asyncio.sleep(0.3)
                assert await other.execute("PING") == SimpleString(b"PONG")
                (conn,) = [
                    c for c in server._connections
                    if c.transport.get_extra_info("peername")
                    == raw.getsockname()
                ]
                assert conn.transport.get_write_buffer_size() < 1 << 20

                received = bytearray()
                while len(received) < len(expected):
                    chunk = await asyncio.wait_for(
                        loop.sock_recv(raw, 1 << 20), timeout=5.0
                    )
                    assert chunk, "server closed the connection"
                    received += chunk
                assert received == expected
                assert await asyncio.wait_for(
                    loop.sock_recv(raw, 1024), timeout=5.0
                ) == b""
            finally:
                raw.close()
            await other.close()

        serve_and_run(server, scenario)

    def test_quit_left_by_a_pause_closes_once(self):
        """A QUIT that waited out a pause is served when the buffer
        drains, and the connection closes cleanly (asyncio reports no
        error from the transport)."""
        server = make_server()
        big = b"v" * (4 << 20)
        request = encode_command("GET", "big") + encode_command("QUIT")
        expected = encode(big) + encode(SimpleString(b"OK"))
        loop_errors = []

        async def scenario(host, port):
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, ctx: loop_errors.append(ctx))
            other = await AsyncRespClient.connect(host, port)
            await other.execute("SET", "big", big)
            raw = socket.socket()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
            raw.setblocking(False)
            try:
                await loop.sock_connect(raw, (host, port))
                await loop.sock_sendall(raw, request)
                await asyncio.sleep(0.2)
                received = bytearray()
                while chunk := await asyncio.wait_for(
                    loop.sock_recv(raw, 1 << 20), timeout=5.0
                ):
                    received += chunk
                assert received == expected
            finally:
                raw.close()
            await other.close()
            await asyncio.sleep(0.05)

        serve_and_run(server, scenario)
        assert loop_errors == []


class TestCostEmulation:
    def test_sim_size_scales_fork_costs(self):
        small = build_backend(
            ServerConfig(engine="default", port=0, keys=64,
                         value_size=64, sim_size_gb=8.0)
        )
        costs = small.engine.fork_engine.costs
        assert isinstance(costs, WireCostModel)
        # Inflated: the size-proportional per-entry terms.
        assert costs.pte_entry_copy_ns > 33
        # Physical: per-event interruption cost stays calibrated.
        assert costs.table_fault_ns() < 25_000
        # Disabled emulation keeps the calibrated model untouched.
        plain = build_backend(
            ServerConfig(engine="default", port=0, keys=64,
                         value_size=64, sim_size_gb=0.0)
        )
        assert plain.engine.fork_engine.costs.pte_entry_copy_ns == 33

    @pytest.mark.parametrize("engine", sorted(FORK_METHODS))
    def test_bgsave_is_sliced_into_the_one_shot_file(self, engine):
        config = ServerConfig(engine=engine, port=0, keys=1500,
                              value_size=1024)
        sliced, twin = build_backend(config), build_backend(config)
        assert sliced.snapshot_slice_bytes == SNAPSHOT_SLICE_BYTES
        reaped = []
        sliced.on_job_done = lambda job, error: reaped.append(job.report)
        sliced.handle([b"BGSAVE"])
        ticks = 0
        while sliced.engine.active_job is not None:
            sliced.handle([b"SET", b"key:%012d" % ticks, b"new"])
            ticks += 1
        # 1.5 MB of values: a planning tick, several slices, a close
        # tick and the reap.
        assert ticks >= 1.5e6 // SNAPSHOT_SLICE_BYTES + 3
        want = twin.engine.save_now().file
        (report,) = reaped
        got = report.file
        assert got.payload == want.payload
        assert got.digest == want.digest

    def test_default_fork_stalls_wire_more_than_async(self):
        """The tentpole claim, at the bridge: one BGSAVE's kernel-busy
        wall time under the default fork dwarfs Async-fork's."""
        stall_wall = {}
        for engine in ("default", "async"):
            config = ServerConfig(engine=engine, port=0, keys=256,
                                  value_size=256, sim_size_gb=8.0)
            backend = build_backend(config)
            slept = []
            bridge = ClockBridge(
                backend.engine.clock, scale=1.0, sleep=slept.append
            )
            server = ReproServer(backend, bridge, config)

            async def scenario(host, port):
                client = await AsyncRespClient.connect(host, port)
                await client.execute("BGSAVE")
                for _ in range(64):
                    await client.execute("PING")
                    if server.backend.engine.active_job is None:
                        break
                await client.close()

            serve_and_run(server, scenario)
            stall_wall[engine] = sum(slept)
        # ~70 ms vs well under 1 ms at 8 GiB emulated.
        assert stall_wall["default"] > 0.01
        assert stall_wall["async"] < 0.005
        assert stall_wall["default"] > 10 * stall_wall["async"]


class TestWireLatencyContrast:
    """Client-observed wall-clock latency, server in its own thread."""

    @staticmethod
    def measure(engine: str) -> float:
        from repro.experiments.figx_live import measure_engine

        result = measure_engine(engine, duration_s=0.8)
        assert result.bgsaves >= 1
        assert result.samples > 50
        return result.max_ms

    def test_default_spikes_async_stays_flat(self):
        default_max = self.measure("default")
        async_max = self.measure("async")
        # The default fork's ~70 ms emulated page-table copy must be
        # visible at the wire max; Async-fork must stay well below it.
        assert default_max > 30.0
        assert default_max > 2 * async_max
