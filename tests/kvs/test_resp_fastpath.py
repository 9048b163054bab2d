"""The parser's fast path and read offset change nothing a peer can see.

:class:`~repro.kvs.resp.Parser` reads from an offset and takes complete
arrays of bulk strings in one scan.  The reference below is the plain
incremental parser: it hands the whole unconsumed buffer to the general
``_parse`` for every value.  On streams of valid requests mixed with
damaged and unusual frames, cut at random chunk boundaries, both must
yield the same values (types included), consume the same bytes, and
raise :class:`~repro.kvs.resp.ProtocolError` at the same value.
"""

from __future__ import annotations

import random

import pytest

from repro.kvs import resp
from repro.kvs.resp import (
    INCOMPLETE,
    Parser,
    ProtocolError,
    RespError,
    encode_command,
)


class ReferenceParser:
    """Incremental parsing with nothing but the general ``_parse``."""

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.bytes_consumed = 0

    def feed(self, data: bytes) -> None:
        self.buffer += data

    def parse_one(self):
        result, consumed = resp._parse(bytes(self.buffer), 0, 0)
        if result is INCOMPLETE:
            return INCOMPLETE
        del self.buffer[:consumed]
        self.bytes_consumed += consumed
        return result


def shape(value):
    """``value`` with the type of every node spelled out."""
    if isinstance(value, RespError):
        return ("RespError", value.message)
    if isinstance(value, list):
        return (type(value).__name__, [shape(item) for item in value])
    if isinstance(value, dict):
        return ("dict", sorted(
            (repr(shape(k)), shape(v)) for k, v in value.items()
        ))
    if isinstance(value, set):
        return ("set", sorted(repr(shape(item)) for item in value))
    return (type(value).__name__, value)


def bulk(data: bytes) -> bytes:
    return b"$%d\r\n%s\r\n" % (len(data), data)


def random_arg(rng: random.Random) -> bytes:
    size = rng.choice((0, 1, 3, 8, 40, 300))
    data = bytearray(rng.randbytes(size))
    # CR/LF inside a bulk are data, not framing.
    for _ in range(rng.randint(0, 3)):
        if data:
            at = rng.randrange(len(data))
            data[at : at + 2] = rng.choice((b"\r\n", b"\r", b"\n"))
    return bytes(data)


def valid_request(rng: random.Random) -> bytes:
    args = [random_arg(rng) for _ in range(rng.randint(1, 5))]
    return b"*%d\r\n" % len(args) + b"".join(bulk(a) for a in args)


def damaged_request(rng: random.Random) -> bytes:
    """An array of bulks with one framing defect (or an unusual header)."""
    args = [random_arg(rng) for _ in range(rng.randint(1, 4))]
    at = rng.randrange(len(args))
    arg = args[at]
    kind = rng.randrange(10)
    count = b"%d" % len(args)
    if kind == 0:  # declared length off by a few bytes
        header = b"%d" % max(0, len(arg) + rng.choice((-2, -1, 1, 2)))
        element = b"$" + header + b"\r\n" + arg + b"\r\n"
    elif kind == 1:  # terminator damaged or missing
        element = (b"$%d\r\n" % len(arg) + arg
                   + rng.choice((b"XY", b"\r", b"\n\r", b"", b"\rX")))
    elif kind == 2:  # signed, spaced, '_' or non-digit length
        header = rng.choice((b"+", b"-", b" ", b"x", b"0x")) + b"%d" % len(arg)
        if rng.random() < 0.3:
            header = b"%d_0" % len(arg)
        element = b"$" + header + b"\r\n" + arg + b"\r\n"
    elif kind == 3:  # over-long or zero-padded length header
        width = rng.choice((19, 20, 21, 30))
        element = b"$" + (b"%d" % len(arg)).rjust(width, b"0") + b"\r\n"
        element += arg + b"\r\n"
    elif kind == 4:  # null bulk, or a bulk longer than the limit
        element = rng.choice((b"$-1\r\n", b"$%d\r\n" % (resp.MAX_BULK_LEN + 1)))
    elif kind == 5:  # another element type inside the array
        element = rng.choice((b":5\r\n", b"+OK\r\n", b"*1\r\n$1\r\na\r\n",
                              b"_\r\n", b"*0\r\n", b"*-1\r\n"))
    elif kind == 6:  # array count: signed, non-digit, over-long, too big
        count = rng.choice((b"+" + count, b"-" + count, b"x", b"",
                            count.rjust(21, b"0"), count.rjust(20, b"0"),
                            b"%d" % (resp.MAX_MULTIBULK + 1)))
        element = bulk(arg)
    elif kind == 7:  # count promises more or fewer elements than sent
        count = b"%d" % (len(args) + rng.choice((-1, 1)))
        element = bulk(arg)
    elif kind == 8:  # header line torn by a bare CR or LF
        element = b"$%d" % len(arg) + rng.choice((b"\r", b"\n", b"\r\r\n"))
        element += arg + b"\r\n"
    else:  # header without its terminator
        element = b"$%d" % len(arg)
    parts = [bulk(a) for a in args]
    parts[at] = element
    return b"*" + count + b"\r\n" + b"".join(parts)


OTHER_FRAMES = (
    b"*0\r\n", b"*-1\r\n", b"$-1\r\n", b"$3\r\nabc\r\n",
    b"*2\r\n*1\r\n$1\r\na\r\n$1\r\nb\r\n",
    b"PING\r\n", b"SET key value\r\n", b"  \r\n",
    b"+OK\r\n", b"-ERR no\r\n", b":42\r\n", b"(123\r\n",
    b"_\r\n", b"#t\r\n", b",1.5\r\n",
    b"%1\r\n+k\r\n:1\r\n", b"~2\r\n:1\r\n:2\r\n", b">1\r\n$1\r\nx\r\n",
    b"*1\r\n" * 4 + b"$1\r\nz\r\n",
)


def random_stream(rng: random.Random) -> bytes:
    frames = []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.6:
            frames.append(valid_request(rng))
        elif roll < 0.8:
            frames.append(rng.choice(OTHER_FRAMES))
        else:
            frames.append(damaged_request(rng))
    return b"".join(frames)


def run_both(stream: bytes, cuts: list[int]):
    """Feed ``stream`` in pieces to both parsers; compare every step."""
    parser, reference = Parser(), ReferenceParser()
    values = 0
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        parser.feed(stream[lo:hi])
        reference.feed(stream[lo:hi])
        while True:
            try:
                want = reference.parse_one()
            except ProtocolError:
                with pytest.raises(ProtocolError):
                    parser.parse_one()
                return values, "error"
            got = parser.parse_one()
            if want is INCOMPLETE:
                assert got is INCOMPLETE
                break
            assert shape(got) == shape(want)
            assert parser.bytes_consumed == reference.bytes_consumed
            values += 1
            assert parser.values_parsed == values
    assert parser.pending_bytes == len(reference.buffer)
    return values, "end"


def random_cuts(rng: random.Random, size: int) -> list[int]:
    style = rng.randrange(3)
    if style == 0 or size < 2:
        return []  # one feed
    if style == 1:
        return sorted(rng.sample(range(1, size), min(size - 1, 6)))
    step = rng.randint(1, 9)
    return list(range(step, size, step))


@pytest.mark.parametrize("block", range(4))
def test_parser_matches_the_general_parser(block):
    outcomes = set()
    for seed in range(block * 150, (block + 1) * 150):
        rng = random.Random(seed)
        stream = random_stream(rng)
        _, end = run_both(stream, random_cuts(rng, len(stream)))
        outcomes.add(end)
    # Each block sees both clean streams and protocol errors.
    assert outcomes == {"end", "error"}


@pytest.mark.parametrize("frame", [
    b"*1\r\n$3\r\nabcXY",             # terminator skipped
    b"*1\r\n$3\r\nabc\n\r",           # terminator reversed
    b"*2\r\n$1\r\na\r\n$+1\r\nb\r\n",  # signed length
    b"*+1\r\n$1\r\na\r\n",            # signed count
    b"*1\r\n$2\r\nabc\r\n",           # length one short
    b"*1\r\n$" + b"0" * 21 + b"1\r\na\r\n",  # over-long length header
])
def test_damaged_request_raises_like_the_general_parser(frame):
    assert run_both(frame, []) == (0, "error")


def test_pipelined_batch_parses_every_command():
    commands = [
        encode_command("SET", b"key:%05d" % i, b"v\r\n%d" % i)
        if i % 3 == 0 else encode_command("GET", b"key:%05d" % i)
        for i in range(16_000)
    ]
    parser = Parser()
    parser.feed(b"".join(commands))
    values = list(parser)
    assert len(values) == 16_000
    assert values == [
        [b"SET", b"key:%05d" % i, b"v\r\n%d" % i]
        if i % 3 == 0 else [b"GET", b"key:%05d" % i]
        for i in range(16_000)
    ]
    assert parser.pending_bytes == 0
    assert parser.bytes_consumed == sum(map(len, commands))
