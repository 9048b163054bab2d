"""Fuzz the RESP server: arbitrary well-framed commands never crash it.

The server must answer *something* valid (a value or a RESP error) to any
array of bulk strings, and its engine must stay consistent with a
reference dict across any interleaving of the mutating commands.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.async_fork import AsyncFork
from repro.kvs import resp
from repro.kvs.engine import KvEngine
from repro.kvs.resp import RespError, encode_command
from repro.kvs.server import CommandServer

KEYS = [b"a", b"b", b"c"]

command = st.one_of(
    st.tuples(st.just(b"SET"), st.sampled_from(KEYS),
              st.binary(max_size=16)),
    st.tuples(st.just(b"GET"), st.sampled_from(KEYS)),
    st.tuples(st.just(b"DEL"), st.sampled_from(KEYS)),
    st.tuples(st.just(b"EXISTS"), st.sampled_from(KEYS)),
    st.tuples(st.just(b"PING")),
    st.tuples(st.just(b"DBSIZE")),
    st.tuples(st.just(b"BGSAVE")),
    st.tuples(st.just(b"INFO")),
    # Garbage the server must reject gracefully:
    st.tuples(st.binary(min_size=1, max_size=8)),
    st.tuples(st.just(b"SET"), st.sampled_from(KEYS)),  # bad arity
)


@settings(max_examples=40, deadline=None)
@given(commands=st.lists(command, max_size=30))
def test_server_survives_any_command_stream(commands):
    server = CommandServer(KvEngine(fork_engine=AsyncFork()))
    reference: dict[bytes, bytes] = {}

    for cmd in commands:
        raw = server.feed(encode_command(*cmd))
        parser = resp.Parser()
        parser.feed(raw)
        replies = list(parser)
        assert len(replies) == 1  # exactly one reply per command
        reply = replies[0]

        name = cmd[0].upper()
        if name == b"SET" and len(cmd) == 3:
            reference[cmd[1]] = cmd[2]
            assert reply == b"OK"
        elif name == b"GET" and len(cmd) == 2:
            assert reply == reference.get(cmd[1])
        elif name == b"DEL" and len(cmd) == 2:
            expected = 1 if cmd[1] in reference else 0
            reference.pop(cmd[1], None)
            assert reply == expected
        elif name == b"EXISTS" and len(cmd) == 2:
            assert reply == (1 if cmd[1] in reference else 0)
        elif name == b"DBSIZE":
            assert reply == len(reference)
        elif name == b"BGSAVE":
            assert isinstance(reply, (bytes, RespError))

    # Whatever happened, the store matches the reference at the end.
    if server.engine.active_job is not None:
        server.finish_background_job()
    for key in KEYS:
        assert server.engine.get(key) == reference.get(key)


@settings(max_examples=25, deadline=None)
@given(payload=st.binary(max_size=200))
def test_parser_never_hangs_on_garbage(payload):
    """Arbitrary bytes either parse, raise ProtocolError, or stay pending
    — the server wrapper turns framing errors into nothing worse."""
    parser = resp.Parser()
    parser.feed(payload)
    try:
        consumed = list(parser)
    except resp.ProtocolError:
        return
    # Whatever parsed must be re-encodable (structurally valid).
    for value in consumed:
        if isinstance(value, RespError):
            continue
        resp.encode(value)
