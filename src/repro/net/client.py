"""A minimal asyncio RESP client.

Used by the ``figx-live`` experiment, ``scripts/net_smoke.py``, and
the tests to put real concurrent load on :class:`~repro.net.app.
ReproServer` without requiring ``redis-cli``/``redis-benchmark`` on the
machine (both also work — the server speaks the same protocol).
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence

from repro.kvs.resp import INCOMPLETE, Parser, RespError, encode_command


class ReplyError(Exception):
    """The server answered with a RESP error reply."""


class AsyncRespClient:
    """One connection; ``execute`` round-trips, ``pipeline`` batches."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._parser = Parser()
        self.proto = 2

    @classmethod
    async def connect(
        cls, host: str, port: int, proto: int = 2
    ) -> "AsyncRespClient":
        """Open a connection; ``proto=3`` performs the HELLO upgrade."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        if proto >= 3:
            await client.execute("HELLO", 3)
            client.proto = 3
        return client

    async def _read_reply(self):
        while True:
            value = self._parser.parse_one()
            if value is not INCOMPLETE:
                return value
            data = await self._reader.read(64 * 1024)
            if not data:
                raise ConnectionError("server closed the connection")
            self._parser.feed(data)

    async def execute(self, *args, check: bool = True):
        """Send one command, await its reply.

        With ``check`` (the default) an error reply raises
        :class:`ReplyError`; pass ``check=False`` to receive the
        :class:`~repro.kvs.resp.RespError` value instead.
        """
        self._writer.write(encode_command(*args))
        await self._writer.drain()
        reply = await self._read_reply()
        if check and isinstance(reply, RespError):
            raise ReplyError(reply.message)
        return reply

    async def pipeline(self, commands: Sequence[Sequence]) -> list:
        """Send every command before reading any reply (RESP pipelining)."""
        payload = b"".join(encode_command(*cmd) for cmd in commands)
        self._writer.write(payload)
        await self._writer.drain()
        return [await self._read_reply() for _ in commands]

    async def send_raw(self, data: bytes) -> None:
        """Write raw bytes (tests exercise inline commands/torn frames)."""
        self._writer.write(data)
        await self._writer.drain()

    async def read_reply(self):
        """Await one reply value (pairs with :meth:`send_raw`)."""
        return await self._read_reply()

    async def close(self, quit: bool = False) -> None:
        """Close the connection (optionally with a polite QUIT first)."""
        if quit:
            try:
                await self.execute("QUIT", check=False)
            except (ConnectionError, OSError):
                pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def wait_for_port(
    host: str, port: int, timeout_s: float = 10.0
) -> None:
    """Poll until a TCP connect succeeds (server-startup handshake)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    last_error: Optional[Exception] = None
    while loop.time() < deadline:
        try:
            _, writer = await asyncio.open_connection(host, port)
            writer.close()
            await writer.wait_closed()
            return
        except OSError as exc:
            last_error = exc
            await asyncio.sleep(0.05)
    raise TimeoutError(
        f"{host}:{port} not accepting connections after {timeout_s}s: "
        f"{last_error}"
    )
