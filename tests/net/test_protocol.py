"""RESP2/RESP3 codec tests for the wire path: byte-exact round trips,
torn reads, fuzz."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvs.resp import (
    INCOMPLETE,
    MAX_DEPTH,
    Parser,
    ProtocolError,
    Push,
    RespError,
    SimpleString,
    encode,
    encode_command,
)
from repro.net import protocol


def parse_all(data: bytes) -> list:
    parser = Parser()
    parser.feed(data)
    return list(parser)


def parse_value(data: bytes):
    values = parse_all(data)
    assert len(values) == 1, values
    return values[0]


class TestEncodeBytes:
    """Byte-exact encodings against the RESP spec."""

    def test_simple_string(self):
        assert encode(SimpleString(b"OK")) == b"+OK\r\n"

    def test_error(self):
        assert encode(RespError("ERR boom")) == b"-ERR boom\r\n"

    def test_error_strips_newlines(self):
        assert encode(RespError("a\r\nb")) == b"-a  b\r\n"

    def test_integer(self):
        assert encode(42) == b":42\r\n"
        assert encode(-1) == b":-1\r\n"

    def test_bulk_string(self):
        assert encode(b"hello") == b"$5\r\nhello\r\n"
        assert encode(b"") == b"$0\r\n\r\n"

    def test_bulk_string_with_crlf_payload(self):
        assert encode(b"a\r\nb") == b"$4\r\na\r\nb\r\n"

    def test_null_proto2_vs_proto3(self):
        assert encode(None, 2) == b"$-1\r\n"
        assert encode(None, 3) == b"_\r\n"

    def test_bool_proto2_vs_proto3(self):
        assert encode(True, 2) == b":1\r\n"
        assert encode(False, 2) == b":0\r\n"
        assert encode(True, 3) == b"#t\r\n"
        assert encode(False, 3) == b"#f\r\n"

    def test_double_proto3(self):
        assert encode(1.5, 3) == b",1.5\r\n"
        assert encode(float("inf"), 3) == b",inf\r\n"

    def test_double_degrades_to_bulk_proto2(self):
        assert encode(1.5, 2) == b"$3\r\n1.5\r\n"

    def test_array(self):
        assert (
            encode([b"a", 1, None], 2)
            == b"*3\r\n$1\r\na\r\n:1\r\n$-1\r\n"
        )

    def test_nested_array(self):
        assert (
            encode([[b"x"], []], 2) == b"*2\r\n*1\r\n$1\r\nx\r\n*0\r\n"
        )

    def test_map_proto3(self):
        assert (
            encode({b"k": 1}, 3) == b"%1\r\n$1\r\nk\r\n:1\r\n"
        )

    def test_map_flattens_proto2(self):
        assert (
            encode({b"k": 1}, 2) == b"*2\r\n$1\r\nk\r\n:1\r\n"
        )

    def test_push_frame(self):
        assert (
            encode(Push([b"msg"]), 3) == b">1\r\n$3\r\nmsg\r\n"
        )
        assert encode(Push([b"msg"]), 2) == b"*1\r\n$3\r\nmsg\r\n"

    def test_str_encodes_as_bulk(self):
        assert encode("hi") == b"$2\r\nhi\r\n"

    def test_set_refused(self):
        with pytest.raises(TypeError, match="set"):
            encode({1, 2})

    def test_encode_command(self):
        assert (
            encode_command("SET", "k", 1)
            == b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\n1\r\n"
        )


class TestParse:
    def test_simple_types(self):
        assert parse_value(b"+OK\r\n") == SimpleString(b"OK")
        assert parse_value(b":42\r\n") == 42
        assert parse_value(b":-42\r\n") == -42
        assert parse_value(b"$5\r\nhello\r\n") == b"hello"
        error = parse_value(b"-ERR boom\r\n")
        assert isinstance(error, RespError)
        assert error.message == "ERR boom"

    def test_resp3_types(self):
        assert parse_value(b"_\r\n") is None
        assert parse_value(b"#t\r\n") is True
        assert parse_value(b"#f\r\n") is False
        assert parse_value(b",1.5\r\n") == 1.5
        assert parse_value(b"(12345678901234567890\r\n") == (
            12345678901234567890
        )
        assert parse_value(b"(-12345678901234567890\r\n") == (
            -12345678901234567890
        )
        assert parse_value(b"%1\r\n$1\r\nk\r\n:1\r\n") == {b"k": 1}
        assert parse_value(b"~2\r\n:1\r\n:2\r\n") == {1, 2}
        push = parse_value(b">1\r\n$3\r\nmsg\r\n")
        assert isinstance(push, Push)
        assert push == [b"msg"]

    def test_nulls(self):
        assert parse_value(b"$-1\r\n") is None
        assert parse_value(b"*-1\r\n") is None

    def test_nested_arrays(self):
        data = b"*2\r\n*2\r\n:1\r\n:2\r\n*1\r\n$1\r\nx\r\n"
        assert parse_value(data) == [[1, 2], [b"x"]]

    def test_inline_command(self):
        assert parse_value(b"PING\r\n") == [b"PING"]
        assert parse_value(b"SET  k   v\r\n") == [b"SET", b"k", b"v"]

    def test_big_bulk_string(self):
        payload = bytes(range(256)) * 4096  # 1 MiB
        data = b"$%d\r\n" % len(payload) + payload + b"\r\n"
        assert parse_value(data) == payload

    def test_pipelined_values(self):
        values = parse_all(b"+OK\r\n:1\r\nPING\r\n$1\r\nx\r\n")
        assert values == [SimpleString(b"OK"), 1, [b"PING"], b"x"]

    def test_counters(self):
        parser = Parser()
        parser.feed(b"+OK\r\n:1\r\n")
        assert list(parser) == [SimpleString(b"OK"), 1]
        assert parser.values_parsed == 2
        assert parser.bytes_consumed == 9
        assert parser.pending_bytes == 0


class TestTornReads:
    """Any split of a valid stream must parse to the same values."""

    STREAM = (
        b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$3\r\nabc\r\n"
        b"+OK\r\n"
        b"%1\r\n$1\r\nk\r\n*1\r\n#t\r\n"
    )
    EXPECT = [
        [b"SET", b"k", b"abc"],
        SimpleString(b"OK"),
        {b"k": [True]},
    ]

    def test_byte_by_byte(self):
        parser = Parser()
        values = []
        for i in range(len(self.STREAM)):
            parser.feed(self.STREAM[i : i + 1])
            values.extend(parser)
        assert values == self.EXPECT
        assert parser.pending_bytes == 0

    @pytest.mark.parametrize("chunk", [2, 3, 7, 13])
    def test_fixed_chunks(self, chunk):
        parser = Parser()
        values = []
        for i in range(0, len(self.STREAM), chunk):
            parser.feed(self.STREAM[i : i + chunk])
            values.extend(parser)
        assert values == self.EXPECT

    def test_incomplete_stays_pending(self):
        parser = Parser()
        parser.feed(b"$5\r\nhel")
        assert parser.parse_one() is INCOMPLETE
        assert parser.pending_bytes == 7
        parser.feed(b"lo\r\n")
        assert parser.parse_one() == b"hello"

    def test_torn_bulk_terminator(self):
        parser = Parser()
        parser.feed(b"$2\r\nab\r")
        assert parser.parse_one() is INCOMPLETE
        parser.feed(b"\n")
        assert parser.parse_one() == b"ab"


class TestHostileInput:
    @pytest.mark.parametrize(
        "data",
        [
            b"$-2\r\n",            # bad bulk length
            b"$999999999999999\r\n",  # over proto-max-bulk-len
            b"*-2\r\n",            # bad array length
            b"*99999999\r\n",      # multibulk bomb
            b"%-2\r\n",            # bad map length
            b"%-1\r\n",            # null map frame
            b">-1\r\n",            # null push frame
            b":abc\r\n",           # not an integer
            b",xyz\r\n",           # not a double
            b",\r\n",              # empty double
            b"#x\r\n",             # bad boolean
            b"_oops\r\n",          # null with payload
            b"$3\r\nabcd\r\n",     # missing bulk terminator
            b"\r\n",               # empty inline command
            b"%1\r\n*1\r\n:1\r\n:2\r\n",  # unhashable map key
            b"~1\r\n*1\r\n:1\r\n",        # unhashable set member
        ],
    )
    def test_raises_wire_protocol_error(self, data):
        parser = Parser()
        parser.feed(data)
        with pytest.raises(ProtocolError):
            parser.parse_one()

    def test_depth_bomb(self):
        parser = Parser()
        parser.feed(b"*1\r\n" * (MAX_DEPTH + 2))
        with pytest.raises(ProtocolError, match="nesting"):
            parser.parse_one()

    @pytest.mark.parametrize(
        "data",
        [
            b"$1_0\r\n0123456789\r\n",  # '_' separator
            b"$ 2\r\nab\r\n",           # leading space
            b"$2 \r\nab\r\n",           # trailing space
            b"$+2\r\nab\r\n",           # explicit plus sign
            b"$-\r\n",                  # bare sign
            b"*1_0\r\n",                # '_' in an array length
            b"%+1\r\n:1\r\n:2\r\n",     # signed map length
            b":1_000\r\n",              # '_' in an integer
            b": 7\r\n",                 # space in an integer
            b":\r\n",                   # empty integer
            b"(+5\r\n",                 # signed big number
            b":" + b"9" * 5000 + b"\r\n",     # past int()'s digit limit
            b"(" + b"9" * 5000 + b"\r\n",     # the same as a big number
            b"$" + b"9" * 5000 + b"\r\n",     # a bulk length that long
            b"*" + b"0" * 21 + b"\r\n",       # 21 characters of length
        ],
    )
    def test_integer_framing_is_strict(self, data):
        """Only an optional '-' then ASCII digits."""
        parser = Parser()
        parser.feed(data)
        with pytest.raises(ProtocolError, match="bad"):
            parser.parse_one()


def test_wire_names_are_the_one_codec():
    assert protocol.StreamParser is Parser
    assert protocol.WireProtocolError is ProtocolError
    assert protocol.encode is encode


# --------------------------------------------------------------------------
# property-based round trips and crash-freedom
# --------------------------------------------------------------------------

def value_trees(proto: int):
    """Hypothesis strategy over encodable reply-value trees.

    Floats are restricted to finite non-integral-edge cases that
    round-trip through ``repr`` (RESP doubles are text); map keys must
    be hashable scalars.
    """
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.binary(max_size=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64)
        if proto >= 3
        else st.nothing(),
        st.builds(SimpleString, st.binary(max_size=16).filter(
            lambda b: b"\r" not in b and b"\n" not in b
        )),
    )
    if proto >= 3:
        return st.recursive(
            scalars,
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(
                    st.binary(max_size=8), children, max_size=4
                ),
            ),
            max_leaves=16,
        )
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4),
        max_leaves=16,
    )


def normalize(value):
    """Collapse encode-side aliases (SimpleString/str vs bytes, tuples)."""
    if isinstance(value, SimpleString):
        return bytes(value)
    if isinstance(value, list):
        return [normalize(item) for item in value]
    if isinstance(value, dict):
        return {normalize(k): normalize(v) for k, v in value.items()}
    return value


@settings(max_examples=150, deadline=None)
@given(value_trees(proto=3))
def test_roundtrip_proto3(value):
    parsed = parse_value(encode(value, 3))
    assert normalize(parsed) == normalize(value)


@settings(max_examples=150, deadline=None)
@given(value_trees(proto=2))
def test_roundtrip_proto2(value):
    parsed = parse_value(encode(value, 2))
    assert normalize(parsed) == normalize(value)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256))
def test_arbitrary_bytes_never_crash(data):
    """Hostile prefixes either parse, stay pending, or raise cleanly."""
    parser = Parser()
    parser.feed(data)
    try:
        while parser.parse_one() is not INCOMPLETE:
            pass
    except ProtocolError:
        pass


@settings(max_examples=100, deadline=None)
@given(
    value_trees(proto=3),
    st.binary(min_size=1, max_size=32),
)
def test_valid_value_then_garbage(value, garbage):
    """A valid frame parses even when hostile bytes follow it."""
    parser = Parser()
    parser.feed(encode(value, 3) + garbage)
    assert normalize(parser.parse_one()) == normalize(value)
    try:
        while parser.parse_one() is not INCOMPLETE:
            pass
    except ProtocolError:
        pass
