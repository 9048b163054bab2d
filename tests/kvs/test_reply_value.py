"""The in-process reply normalizer and the arithmetic command size.

``resp.reply_value(v)`` must be exactly the value a RESP peer parses
from ``encode(v)`` at proto 2 — same value, same types all the way down,
same exception for a value the wire cannot carry — and
``resp.command_size(argv)`` exactly ``len(encode_command(*argv))``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kvs.resp import (
    INCOMPLETE,
    Parser,
    Push,
    RespError,
    SimpleString,
    command_argv,
    command_size,
    encode,
    encode_command,
    reply_value,
)


def parsed(value):
    """The reference: encode at proto 2, parse the one frame back."""
    parser = Parser()
    parser.feed(encode(value))
    first = parser.parse_one()
    assert parser.parse_one() is INCOMPLETE, "encoded to more than a frame"
    return first


def shape(value):
    """Value plus type, recursively; errors compare by message."""
    if isinstance(value, RespError):
        return (type(value), value.message)
    if isinstance(value, (list, tuple)):
        return (type(value), [shape(item) for item in value])
    if isinstance(value, dict):
        return (type(value), [(shape(k), shape(v)) for k, v in value.items()])
    return (type(value), value)


def outcome(fn, value):
    try:
        return ("value", shape(fn(value)))
    except Exception as exc:  # the error itself is what is compared
        return ("raised", type(exc), str(exc))


#: Any text, lone surrogates included (``str.encode`` refuses them).
any_text = st.text(st.characters(exclude_categories=()), max_size=24)
#: Line payloads dense in CR and LF, the bytes line framing turns on.
line_bytes = st.binary(max_size=24) | st.lists(
    st.sampled_from([b"\r", b"\n", b"\r\n", b"a", b"OK", b"\x00"]),
    max_size=6,
).map(b"".join)
line_text = any_text | st.lists(
    st.sampled_from(["\r", "\n", "\r\n", "ERR", " ", "é"]), max_size=6
).map("".join)
leaf = st.one_of(
    st.binary(max_size=32),
    st.integers(-(10**20), 10**20),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    any_text,
    line_bytes.map(SimpleString),
    line_text.map(RespError),
    st.binary(max_size=8).map(bytearray),
)
hashable_leaf = st.one_of(
    st.binary(max_size=8), st.integers(-99, 99), st.text(max_size=8)
)
value = st.recursive(
    leaf,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Push),
        st.dictionaries(hashable_leaf, children, max_size=3),
    ),
    max_leaves=12,
)


class TestReplyValue:
    @settings(max_examples=400, deadline=None)
    @given(v=value)
    def test_equals_parse_of_encode(self, v):
        assert outcome(reply_value, v) == outcome(parsed, v)

    @settings(max_examples=200, deadline=None)
    @given(v=line_bytes.map(SimpleString) | line_text.map(RespError))
    @example(v=SimpleString(b"a\r\nb"))
    def test_line_framed_values(self, v):
        assert outcome(reply_value, v) == outcome(parsed, v)

    @pytest.mark.parametrize(
        "v",
        [
            b"payload",
            0,
            -7,
            None,
            SimpleString(b"OK"),
        ],
    )
    def test_fast_path_values_come_back_as_they_are(self, v):
        assert reply_value(v) is v

    def test_error_message_is_sanitized(self):
        err = reply_value(RespError("ERR unknown command 'a\r\nb'"))
        assert type(err) is RespError
        assert err.message == "ERR unknown command 'a  b'"
        assert shape(err) == shape(parsed(RespError("ERR unknown command "
                                                    "'a\r\nb'")))

    def test_simple_string_line_break_is_sanitized(self):
        v = SimpleString(b"a\r\nb\rc\n")
        assert encode(v) == b"+a  b c \r\n"
        assert shape(reply_value(v)) == shape(parsed(v))
        assert shape(reply_value(v)) == (SimpleString, b"a  b c ")

    def test_proto2_degradations(self):
        assert reply_value(True) == 1 and type(reply_value(True)) is int
        assert reply_value(1.5) == b"1.5"
        assert reply_value({b"k": 1}) == [b"k", 1]
        push = reply_value(Push([b"m", 2]))
        assert type(push) is list and push == [b"m", 2]
        assert type(reply_value(bytearray(b"x"))) is bytes

    @pytest.mark.parametrize(
        "v", [{1, 2}, frozenset(), object(), memoryview(b"x"), [{3}]]
    )
    def test_unencodable_raises_the_encoder_error(self, v):
        with pytest.raises(TypeError) as got:
            reply_value(v)
        with pytest.raises(TypeError) as want:
            encode(v)
        assert str(got.value) == str(want.value)

    def test_unencodable_text_raises_like_the_encoder(self):
        for v in ("\ud800", RespError("ERR \udcff")):
            with pytest.raises(UnicodeEncodeError):
                reply_value(v)
            with pytest.raises(UnicodeEncodeError):
                encode(v)


argument = st.one_of(
    st.binary(max_size=300),
    st.text(max_size=40),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False),
    st.binary(max_size=16).map(bytearray),
    st.binary(max_size=16).map(SimpleString),
)


class TestCommandSize:
    @settings(max_examples=300, deadline=None)
    @given(args=st.lists(argument, min_size=1, max_size=30))
    def test_equals_encoded_length(self, args):
        argv = command_argv(args)
        assert command_size(argv) == len(encode_command(*args))

    def test_large_counts_and_lengths(self):
        argv = [b"x" * 1_000_003] + [b""] * 11
        assert command_size(argv) == len(encode_command(*argv))


class TestCommandArgv:
    def test_the_encode_command_rule(self):
        argv = command_argv(
            ["SET", "clé", 5, b"raw", bytearray(b"ba"), 2.5,
             SimpleString(b"s")]
        )
        assert argv == [b"SET", "clé".encode(), b"5", b"raw", b"ba", b"2.5",
                        b"s"]
        assert all(type(a) is bytes for a in argv)

    def test_a_bytes_subclass_is_sent_as_a_bulk_string(self):
        assert encode_command(SimpleString(b"s")) == b"*1\r\n$1\r\ns\r\n"
