"""Tests for the RESP codec on the in-process path."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.async_fork import AsyncFork
from repro.kvs import resp
from repro.kvs.engine import KvEngine
from repro.kvs.resp import (
    OK,
    Parser,
    ProtocolError,
    RespError,
    SimpleString,
    encode,
    encode_command,
)
from repro.kvs.server import CommandServer


class TestEncoding:
    def test_simple_string(self):
        assert encode(OK) == b"+OK\r\n"

    def test_error(self):
        assert encode(RespError("ERR boom")) == b"-ERR boom\r\n"

    def test_integer(self):
        assert encode(42) == b":42\r\n"
        assert encode(-1) == b":-1\r\n"

    def test_bulk_string(self):
        assert encode(b"hi") == b"$2\r\nhi\r\n"

    def test_empty_bulk(self):
        assert encode(b"") == b"$0\r\n\r\n"

    def test_null(self):
        assert encode(None) == b"$-1\r\n"

    def test_str_becomes_bulk(self):
        assert encode("hi") == b"$2\r\nhi\r\n"

    def test_array(self):
        assert encode([b"a", 1]) == b"*2\r\n$1\r\na\r\n:1\r\n"

    def test_nested_array(self):
        assert encode([[b"a"]]) == b"*1\r\n*1\r\n$1\r\na\r\n"

    def test_command_helper(self):
        assert encode_command("SET", "k", b"v") == (
            b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"
        )

    def test_unencodable_rejected(self):
        with pytest.raises(TypeError):
            encode(object())


class TestParsing:
    def _one(self, data: bytes):
        parser = Parser()
        parser.feed(data)
        values = list(parser)
        assert len(values) == 1
        return values[0]

    def test_simple_string(self):
        value = self._one(b"+OK\r\n")
        assert isinstance(value, SimpleString)
        assert value == b"OK"

    def test_error(self):
        value = self._one(b"-ERR nope\r\n")
        assert isinstance(value, RespError)
        assert value.message == "ERR nope"

    def test_integer(self):
        assert self._one(b":123\r\n") == 123

    def test_bulk(self):
        assert self._one(b"$5\r\nhello\r\n") == b"hello"

    def test_null_bulk(self):
        assert self._one(b"$-1\r\n") is None

    def test_null_array(self):
        assert self._one(b"*-1\r\n") is None

    def test_array(self):
        assert self._one(b"*2\r\n:1\r\n:2\r\n") == [1, 2]

    def test_bulk_with_crlf_payload(self):
        assert self._one(b"$4\r\na\r\nb\r\n") == b"a\r\nb"

    def test_inline_command(self):
        assert self._one(b"PING\r\n") == [b"PING"]

    def test_inline_with_args(self):
        assert self._one(b"SET k v\r\n") == [b"SET", b"k", b"v"]

    def test_bad_integer(self):
        parser = Parser()
        parser.feed(b":abc\r\n")
        with pytest.raises(ProtocolError):
            list(parser)

    def test_bad_bulk_terminator(self):
        parser = Parser()
        parser.feed(b"$2\r\nhiXX")
        with pytest.raises(ProtocolError):
            list(parser)

    def test_undecodable_error_line_still_parses(self):
        value = self._one(b"-\xff\r\n")
        assert isinstance(value, RespError)
        assert value.message == "\ufffd"


class TestIncremental:
    def test_byte_at_a_time(self):
        message = encode_command("SET", "key", "value")
        parser = Parser()
        seen = []
        for i in range(len(message)):
            parser.feed(message[i : i + 1])
            seen.extend(parser)
        assert seen == [[b"SET", b"key", b"value"]]

    def test_two_values_in_one_chunk(self):
        parser = Parser()
        parser.feed(b":1\r\n:2\r\n")
        assert list(parser) == [1, 2]

    def test_partial_leaves_buffer(self):
        parser = Parser()
        parser.feed(b"$11\r\nhel")
        assert list(parser) == []
        assert parser.pending_bytes > 0
        parser.feed(b"lo worl")
        assert list(parser) == []
        parser.feed(b"d\r\n")
        assert list(parser) == [b"hello world"]


resp_value = st.recursive(
    st.one_of(
        st.binary(max_size=64),
        st.integers(-(10**12), 10**12),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=5),
    max_leaves=12,
)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(value=resp_value)
    def test_encode_parse_roundtrip(self, value):
        parser = Parser()
        parser.feed(encode(value))
        parsed = list(parser)
        assert parsed == [value]
        assert parser.pending_bytes == 0

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(resp_value, min_size=1, max_size=6),
           seed=st.integers(0, 2**31))
    def test_stream_of_values_chunked(self, values, seed):
        import random

        payload = b"".join(encode(v) for v in values)
        rng = random.Random(seed)
        parser = Parser()
        seen = []
        pos = 0
        while pos < len(payload):
            step = rng.randint(1, 7)
            parser.feed(payload[pos : pos + step])
            seen.extend(parser)
            pos += step
        assert seen == values


class TestServerHardening:
    """The in-process server inherits the parser's crash-freedom."""

    def test_depth_bomb_is_a_protocol_error(self):
        server = CommandServer(KvEngine(fork_engine=AsyncFork()))
        with pytest.raises(ProtocolError, match="nesting"):
            server.feed(b"*1\r\n" * 5000)
