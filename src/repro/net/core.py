"""Per-connection session logic (transport-agnostic).

A :class:`NetSession` owns everything one TCP connection needs besides
the socket itself: the negotiated protocol version (``HELLO``), the
client's name, and the net-level command table — connection-scoped
commands (``HELLO``/``AUTH``/``CLIENT``/``COMMAND``/``CONFIG``/
``SELECT``/``RESET``/``QUIT``/``WAIT``/``SHUTDOWN``) that a shared
:class:`~repro.kvs.server.CommandServer` backend cannot answer because
they are about *this connection*, not the keyspace.  The session checks
and names each request once (:func:`~repro.kvs.server.command_name`),
answers those commands without running serverCron, and passes
everything else, with its name, to the backend, which runs serverCron,
save points, and the background-job lifecycle per dispatched command.

Keeping the session free of asyncio makes it unit-testable byte-for-byte
and reusable by any transport (the tests drive it directly; the app
gives each connection's ``asyncio.Protocol`` one session).
"""

from __future__ import annotations

import fnmatch
from typing import Callable, Optional

from repro.kvs.resp import RespError, SimpleString
from repro.kvs.server import CommandServer, command_name

OK = SimpleString(b"OK")

#: Protocol versions a HELLO may request.
SUPPORTED_PROTOS = (2, 3)

#: Version string reported by HELLO/INFO (clients parse dotted ints).
SERVER_VERSION = "7.4.0"


class SessionClosed(Exception):
    """The client asked to close this connection (``QUIT``)."""

    def __init__(self, reply=OK) -> None:
        super().__init__("session closed")
        self.reply = reply


class ShutdownRequested(Exception):
    """The client asked the whole server to exit (``SHUTDOWN``)."""


class NetSession:
    """State and dispatch for one live connection."""

    def __init__(
        self,
        backend: CommandServer,
        conn_id: int = 0,
        wait_provider: Optional[Callable[[int, int], int]] = None,
    ) -> None:
        self.backend = backend
        self.conn_id = conn_id
        #: RESP protocol version; HELLO 3 switches it.
        self.proto = 2
        self.client_name = b""
        self.commands = 0
        #: ``WAIT numreplicas timeout`` resolver; a standalone server has
        #: no replicas, so the default acks zero.
        self.wait_provider = wait_provider
        self._net_handlers: dict[bytes, Callable] = {
            b"HELLO": self._hello,
            b"AUTH": self._auth,
            b"CLIENT": self._client,
            b"COMMAND": self._command,
            b"CONFIG": self._config,
            b"SELECT": self._select,
            b"RESET": self._reset,
            b"QUIT": self._quit,
            b"WAIT": self._wait,
            b"SHUTDOWN": self._shutdown,
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def dispatch(self, command):
        """Handle one parsed command; returns the reply value.

        Raises :class:`SessionClosed` / :class:`ShutdownRequested` for
        the two commands that outlive a reply value.  Client mistakes
        come back as :class:`~repro.kvs.resp.RespError` values, never as
        exceptions — the connection survives them.
        """
        self.commands += 1
        try:
            name = command_name(command)
            handler = self._net_handlers.get(name)
            if handler is None:
                return self.backend.handle(command, name)
            return handler([bytes(a) if isinstance(a, (bytes, bytearray))
                            else a for a in command[1:]])
        except RespError as err:
            return err

    # ------------------------------------------------------------------
    # connection-scoped commands
    # ------------------------------------------------------------------

    @staticmethod
    def _arity(args, expected: int, name: str) -> None:
        if len(args) != expected:
            raise RespError(
                f"ERR wrong number of arguments for '{name}' command"
            )

    def _hello(self, args):
        proto = self.proto
        if args:
            try:
                proto = int(args[0])
            except (TypeError, ValueError):
                raise RespError(
                    "NOPROTO unsupported protocol version"
                ) from None
            if proto not in SUPPORTED_PROTOS:
                raise RespError("NOPROTO unsupported protocol version")
        rest = args[1:]
        while rest:
            opt = bytes(rest[0]).upper()
            if opt == b"AUTH" and len(rest) >= 3:
                rest = rest[3:]
            elif opt == b"SETNAME" and len(rest) >= 2:
                self.client_name = bytes(rest[1])
                rest = rest[2:]
            else:
                raise RespError("ERR syntax error in HELLO")
        self.proto = proto
        return {
            b"server": b"repro-asyncfork",
            b"version": SERVER_VERSION.encode(),
            b"proto": self.proto,
            b"id": self.conn_id,
            b"mode": self.backend.server_mode,
            b"role": b"master",
            b"modules": [],
        }

    def _auth(self, args):
        if not args:
            raise RespError("ERR wrong number of arguments for 'auth' command")
        raise RespError(
            "ERR Client sent AUTH, but no password is set. Did you mean "
            "AUTH <username> <password>?"
        )

    def _client(self, args):
        if not args:
            raise RespError(
                "ERR wrong number of arguments for 'client' command"
            )
        sub = bytes(args[0]).upper()
        if sub == b"SETNAME":
            self._arity(args, 2, "client setname")
            self.client_name = bytes(args[1])
            return OK
        if sub == b"GETNAME":
            return self.client_name or None
        if sub == b"ID":
            return self.conn_id
        if sub == b"INFO":
            return (
                f"id={self.conn_id} name={self.client_name.decode('utf-8', 'replace')} "
                f"resp={self.proto} cmd-count={self.commands}"
            ).encode()
        if sub in (b"SETINFO", b"NO-EVICT", b"NO-TOUCH", b"REPLY"):
            # Library handshakes (redis-py, redis-cli 7+) send these;
            # accepting them keeps off-the-shelf clients happy.
            return OK
        raise RespError(f"ERR unknown CLIENT subcommand {sub.decode()!r}")

    def _command(self, args):
        if not args:
            # Full command introspection is out of scope; an empty array
            # is what clients degrade on.
            return []
        sub = bytes(args[0]).upper()
        if sub == b"COUNT":
            return len(self.backend._handlers) + len(self._net_handlers)
        if sub in (b"DOCS", b"INFO"):
            return {} if self.proto >= 3 else []
        raise RespError(f"ERR unknown COMMAND subcommand {sub.decode()!r}")

    def _config_dict(self) -> dict[bytes, bytes]:
        save = " ".join(
            f"{p.seconds} {p.changes}" for p in self.backend.save_points
        )
        aof = self.backend.engine.aof is not None
        return {
            b"save": save.encode(),
            b"appendonly": b"yes" if aof else b"no",
            b"maxmemory": b"0",
            b"maxmemory-policy": b"noeviction",
            b"timeout": b"0",
        }

    def _config(self, args):
        if not args:
            raise RespError(
                "ERR wrong number of arguments for 'config' command"
            )
        sub = bytes(args[0]).upper()
        if sub == b"GET":
            if len(args) < 2:
                raise RespError(
                    "ERR wrong number of arguments for 'config|get' command"
                )
            known = self._config_dict()
            out: dict = {}
            for pattern in args[1:]:
                pat = bytes(pattern).decode("utf-8", "replace")
                for key, value in known.items():
                    if fnmatch.fnmatchcase(key.decode(), pat):
                        out[key] = value
            return out
        if sub == b"SET":
            # Accepted and ignored: the simulated engine's knobs are set
            # at construction (repro-serve flags), not over the wire.
            if len(args) < 3 or len(args) % 2 == 0:
                raise RespError(
                    "ERR wrong number of arguments for 'config|set' command"
                )
            return OK
        if sub == b"RESETSTAT":
            return OK
        raise RespError(f"ERR unknown CONFIG subcommand {sub.decode()!r}")

    def _select(self, args):
        self._arity(args, 1, "select")
        try:
            index = int(args[0])
        except (TypeError, ValueError):
            raise RespError("ERR value is not an integer or out of range") \
                from None
        if index != 0:
            raise RespError("ERR DB index is out of range")
        return OK

    def _reset(self, args):
        self._arity(args, 0, "reset")
        self.proto = 2
        self.client_name = b""
        return SimpleString(b"RESET")

    def _quit(self, args):
        self._arity(args, 0, "quit")
        raise SessionClosed()

    def _wait(self, args):
        self._arity(args, 2, "wait")
        try:
            numreplicas = int(args[0])
            timeout_ms = int(args[1])
        except (TypeError, ValueError):
            raise RespError("ERR value is not an integer or out of range") \
                from None
        if self.wait_provider is not None:
            return int(self.wait_provider(numreplicas, timeout_ms))
        return 0

    def _shutdown(self, args):
        for arg in args:
            if bytes(arg).upper() not in (b"NOSAVE", b"SAVE", b"NOW",
                                          b"FORCE"):
                raise RespError("ERR syntax error")
        raise ShutdownRequested()
