"""RESP2/RESP3: the Redis serialization protocol, one codec for every layer.

The in-process command server (:mod:`repro.kvs.server`), the cluster
client and migrator, the proxy and the live asyncio frontend
(:mod:`repro.net`) all speak RESP through this module.  Implemented:
the RESP2 types, null bulk/array, inline commands, and the RESP3 types
a ``HELLO 3`` client expects — nulls, booleans, doubles, big numbers,
maps, sets and pushes.

The encoder is protocol-aware: one reply value renders as RESP3 for a
``HELLO 3`` connection and degrades to RESP2 (maps flatten to arrays,
booleans to integers, doubles to bulk strings) as Redis does.  The
parser is incremental — feed it arbitrary chunks and it yields complete
values — and hardened for a public socket: torn reads, hostile framing,
depth bombs and length bombs either yield values or raise
:class:`ProtocolError`; no input may crash it with anything else.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional, Union

CRLF = b"\r\n"

#: Redis's proto-max-bulk-len default: a longer bulk header is hostile.
MAX_BULK_LEN = 512 * 1024 * 1024
#: Redis's multibulk element cap.
MAX_MULTIBULK = 1024 * 1024
#: Aggregate nesting beyond this is a depth bomb, not a real client.
MAX_DEPTH = 128

RespValue = Union[bytes, int, None, list, "RespError", "SimpleString"]


class SimpleString(bytes):
    """A RESP simple string (``+OK``), distinct from a bulk string."""

    __slots__ = ()


class RespError(Exception):
    """A RESP error reply (``-ERR ...``)."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class ProtocolError(Exception):
    """The byte stream violates RESP framing."""


class Push(list):
    """A RESP3 push frame (``>``): out-of-band server-initiated data."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _format_double(value: float) -> bytes:
    if value != value:
        return b"nan"
    if value == float("inf"):
        return b"inf"
    if value == float("-inf"):
        return b"-inf"
    return repr(value).encode()


#: Simple strings and errors are line-framed: a CR or LF in one (an
#: unknown command name echoed back, say) would desynchronize the
#: stream, so both are sanitized to spaces, as Redis does.
_LINE_SAFE = bytes.maketrans(b"\r\n", b"  ")
_LINE_SAFE_TEXT = str.maketrans("\r\n", "  ")


def encode(value, proto: int = 2) -> bytes:
    """Serialize one value for a proto-2 or proto-3 connection."""
    if isinstance(value, SimpleString):
        return b"+" + value.translate(_LINE_SAFE) + CRLF
    if isinstance(value, RespError):
        message = value.message.translate(_LINE_SAFE_TEXT)
        return b"-" + message.encode() + CRLF
    if isinstance(value, bool):
        if proto >= 3:
            return b"#t" + CRLF if value else b"#f" + CRLF
        return b":1" + CRLF if value else b":0" + CRLF
    if isinstance(value, int):
        return b":" + str(value).encode() + CRLF
    if isinstance(value, float):
        if proto >= 3:
            return b"," + _format_double(value) + CRLF
        return encode(_format_double(value), proto)
    if value is None:
        if proto >= 3:
            return b"_" + CRLF
        return b"$-1" + CRLF
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
        return b"$" + str(len(data)).encode() + CRLF + data + CRLF
    if isinstance(value, str):
        return encode(value.encode(), proto)
    if isinstance(value, dict):
        if proto >= 3:
            parts = [b"%" + str(len(value)).encode() + CRLF]
            for key, item in value.items():
                parts.append(encode(key, proto))
                parts.append(encode(item, proto))
            return b"".join(parts)
        flat = []
        for key, item in value.items():
            flat.append(key)
            flat.append(item)
        return encode(flat, proto)
    if isinstance(value, Push):
        marker = b">" if proto >= 3 else b"*"
        parts = [marker + str(len(value)).encode() + CRLF]
        parts.extend(encode(item, proto) for item in value)
        return b"".join(parts)
    if isinstance(value, (list, tuple)):
        parts = [b"*" + str(len(value)).encode() + CRLF]
        parts.extend(encode(item, proto) for item in value)
        return b"".join(parts)
    if isinstance(value, (set, frozenset)):
        raise TypeError(
            "refusing to encode a set: iteration order is not "
            "deterministic; encode a sorted list instead"
        )
    raise TypeError(f"cannot encode {type(value).__name__} as RESP")


def command_argv(args) -> list[bytes]:
    """A command's arguments as the bulk strings a server receives.

    ``str`` becomes UTF-8, any other non-bytes value its ``str()``
    (``5`` -> ``b"5"``), and bytes-likes become plain ``bytes``.
    """
    return [
        a if type(a) is bytes
        else bytes(a) if isinstance(a, (bytes, bytearray))
        else str(a).encode()
        for a in args
    ]


def encode_command(*args) -> bytes:
    """Serialize a client command as an array of bulk strings."""
    return encode(command_argv(args))


def command_size(argv) -> int:
    """``len(encode_command(*argv))`` for an argv of bytes, by arithmetic."""
    size = 3 + len(str(len(argv)))  # "*<n>\r\n"
    for arg in argv:
        n = len(arg)
        size += 5 + len(str(n)) + n  # "$<len>\r\n<arg>\r\n"
    return size


def reply_value(value) -> RespValue:
    """The value a RESP peer parses from ``encode(value)`` at proto 2.

    What an in-process caller of a server gets instead of the reply
    bytes.  Plain ``bytes``, ``int`` and ``None`` come back as they
    are, a simple string with its CR/LF sanitized (itself when it has
    none), an error rebuilt with its message sanitized; anything else
    really goes through :func:`encode` and a :class:`Parser`, so a
    value the wire cannot carry raises the same ``TypeError`` here.
    """
    kind = type(value)
    if kind is bytes or kind is int or value is None:
        return value
    if kind is SimpleString:
        line = value.translate(_LINE_SAFE)
        return value if line == value else SimpleString(line)
    if kind is RespError:
        # The UTF-8 round trip raises on text the wire cannot carry
        # (lone surrogates), as encode() does.
        message = value.message.translate(_LINE_SAFE_TEXT)
        return RespError(message.encode().decode())
    parser = Parser()
    parser.feed(encode(value))
    return parser.parse_one()


OK = SimpleString(b"OK")
PONG = SimpleString(b"PONG")


# ---------------------------------------------------------------------------
# incremental parsing
# ---------------------------------------------------------------------------

class _Incomplete:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<incomplete>"


#: Returned by :meth:`Parser.parse_one` when the buffered bytes do not
#: yet form a complete value.
INCOMPLETE = _Incomplete()


class Parser:
    """Incremental RESP2/RESP3 parser for one connection.

    Feed it arbitrary chunks (``feed``) and iterate complete values::

        parser = Parser()
        parser.feed(chunk)
        for value in parser:
            ...

    Parsing reads the buffered bytes from an offset, so a pipelined
    batch costs the same per command however many commands it holds;
    the consumed prefix is dropped once per feed (or once the buffer is
    used up), not once per value.  A complete array of bulk strings —
    every client request — takes a one-pass fast path
    (:func:`_parse_bulk_array`); every other frame goes to the general
    parser, which decides all errors and limits.

    Framing violations raise :class:`ProtocolError`; anything else
    escaping the parser is a bug (the fuzz tests enforce this).  After a
    protocol error the stream is unsalvageable — a server closes the
    connection, as Redis does.
    """

    __slots__ = ("_data", "_pos", "values_parsed", "bytes_consumed")

    def __init__(self) -> None:
        #: Buffered bytes; everything before ``_pos`` is consumed.
        self._data = b""
        self._pos = 0
        self.values_parsed = 0
        self.bytes_consumed = 0

    def feed(self, data: bytes) -> None:
        """Append raw bytes from the wire."""
        if self._pos < len(self._data):
            self._data = self._data[self._pos:] + data
        else:
            self._data = bytes(data)
        self._pos = 0

    def __iter__(self) -> Iterator:
        while True:
            value = self.parse_one()
            if value is INCOMPLETE:
                return
            yield value

    def parse_one(self):
        """One complete value, or the :data:`INCOMPLETE` sentinel."""
        data, pos = self._data, self._pos
        found = None
        if data.startswith(b"*", pos):
            found = _parse_bulk_array(data, pos)
        elif pos >= len(data):
            # Used up: release the batch before the next feed.
            self._data, self._pos = b"", 0
            return INCOMPLETE
        result, end = found or _parse(data, pos, 0)
        if result is INCOMPLETE:
            return INCOMPLETE
        self._pos = end
        self.values_parsed += 1
        self.bytes_consumed += end - pos
        return result

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete value."""
        return len(self._data) - self._pos


def _find_line(data: bytes, pos: int) -> Optional[tuple[bytes, int]]:
    end = data.find(CRLF, pos)
    if end < 0:
        if len(data) - pos > MAX_BULK_LEN:
            raise ProtocolError("unterminated line exceeds bulk limit")
        return None
    return data[pos:end], end + 2


#: Characters in a length header: "-1" or up to 20 digits, as a 64-bit
#: integer needs.
_MAX_LENGTH_DIGITS = 20


def _parse_int(line: bytes, what: str) -> int:
    # Only an optional '-' then ASCII digits.  Python's int() would also
    # take '+', spaces and '_' separators, and raises ValueError past its
    # 4300-digit conversion limit.
    if line.isdigit() or (line[:1] == b"-" and line[1:].isdigit()):
        try:
            return int(line)
        except ValueError:
            pass
    raise ProtocolError(f"bad {what} {line[:32]!r}")


def _parse_length(header: bytes, what: str) -> int:
    if len(header) > _MAX_LENGTH_DIGITS:
        raise ProtocolError(f"bad {what} {header[:32]!r}")
    return _parse_int(header, what)


#: A request's headers: ``*<count>`` and ``$<length>``, plain digits.
_ARRAY_HEADER = re.compile(rb"\*([0-9]{1,%d})\r\n" % _MAX_LENGTH_DIGITS)
_BULK_HEADER = re.compile(rb"\$([0-9]{1,%d})\r\n" % _MAX_LENGTH_DIGITS)


def _parse_bulk_array(data: bytes, pos: int) -> Optional[tuple[list, int]]:
    """A complete ``*<n>`` array of ``$<len>`` bulks at ``pos``, in one scan.

    Returns ``(items, end)`` exactly as :func:`_parse` would, or ``None``
    for anything else — another element type, a header that is not plain
    digits or is over a limit, ``*0``, a bad terminator, or input that is
    not complete yet — which the caller hands to :func:`_parse`.
    """
    header = _ARRAY_HEADER.match(data, pos)
    if header is None:
        return None
    count = int(header[1])
    if not 0 < count <= MAX_MULTIBULK:
        return None
    items = []
    append = items.append
    match = _BULK_HEADER.match
    pos = header.end()
    for _ in range(count):
        header = match(data, pos)
        if header is None:
            return None
        start = header.end()
        pos = start + int(header[1])
        if pos - start > MAX_BULK_LEN or data[pos : pos + 2] != CRLF:
            return None
        append(data[start:pos])
        pos += 2
    return items, pos


def _parse(data: bytes, pos: int, depth: int):
    if depth > MAX_DEPTH:
        raise ProtocolError("aggregate nesting too deep")
    if pos >= len(data):
        return INCOMPLETE, pos
    kind = data[pos : pos + 1]
    if kind in b"$*+:-_#,(%~>":
        found = _find_line(data, pos + 1)
        if found is None:
            return INCOMPLETE, pos
        line, after = found
        # Most frequent kinds first: requests are arrays of bulks.
        if kind == b"$":
            return _parse_bulk(data, line, after)
        if kind == b"*" or kind == b">":
            return _parse_array(data, line, after, depth, push=kind == b">")
        if kind == b"+":
            return SimpleString(line), after
        if kind == b":" or kind == b"(":
            return _parse_int(line, "integer"), after
        if kind == b"-":
            return RespError(line.decode("utf-8", "replace")), after
        if kind == b"_":
            if line:
                raise ProtocolError("null frame carries payload")
            return None, after
        if kind == b"#":
            if line == b"t":
                return True, after
            if line == b"f":
                return False, after
            raise ProtocolError(f"bad boolean {line!r}")
        if kind == b",":
            return _parse_double(line), after
        if kind == b"%":
            return _parse_map(data, line, after, depth)
        return _parse_set(data, line, after, depth)
    # Inline command: a bare line of space-separated words.
    found = _find_line(data, pos)
    if found is None:
        return INCOMPLETE, pos
    line, after = found
    if not line.strip():
        raise ProtocolError("empty inline command")
    return [bytes(w) for w in line.split()], after


def _parse_double(line: bytes) -> float:
    text = line.decode("ascii", "replace").strip()
    if not text:
        raise ProtocolError("empty double")
    try:
        return float(text)
    except ValueError:
        raise ProtocolError(f"bad double {line!r}") from None


def _parse_bulk(data: bytes, header: bytes, pos: int):
    length = _parse_length(header, "bulk length")
    if length == -1:
        return None, pos
    if length < 0 or length > MAX_BULK_LEN:
        raise ProtocolError(f"bad bulk length {length}")
    end = pos + length
    if len(data) < end + 2:
        return INCOMPLETE, pos
    if data[end : end + 2] != CRLF:
        raise ProtocolError("bulk string missing terminator")
    return data[pos:end], end + 2


def _parse_count(header: bytes, what: str) -> Optional[int]:
    count = _parse_length(header, what)
    if count == -1:
        return None
    if count < 0 or count > MAX_MULTIBULK:
        raise ProtocolError(f"bad {what} {count}")
    return count


def _parse_array(data: bytes, header: bytes, pos: int, depth: int,
                 push: bool = False):
    count = _parse_count(header, "array length")
    if count is None:
        if push:
            raise ProtocolError("null push frame")
        return None, pos
    items = Push() if push else []
    for _ in range(count):
        item, pos = _parse(data, pos, depth + 1)
        if item is INCOMPLETE:
            return INCOMPLETE, pos
        items.append(item)
    return items, pos


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        raise ProtocolError(
            f"unhashable {type(value).__name__} as map/set member"
        ) from None
    return value


def _parse_map(data: bytes, header: bytes, pos: int, depth: int):
    count = _parse_count(header, "map length")
    if count is None:
        raise ProtocolError("null map frame")
    items: dict = {}
    for _ in range(count):
        key, pos = _parse(data, pos, depth + 1)
        if key is INCOMPLETE:
            return INCOMPLETE, pos
        value, pos = _parse(data, pos, depth + 1)
        if value is INCOMPLETE:
            return INCOMPLETE, pos
        items[_hashable(key)] = value
    return items, pos


def _parse_set(data: bytes, header: bytes, pos: int, depth: int):
    count = _parse_count(header, "set length")
    if count is None:
        raise ProtocolError("null set frame")
    items = set()
    for _ in range(count):
        item, pos = _parse(data, pos, depth + 1)
        if item is INCOMPLETE:
            return INCOMPLETE, pos
        items.add(_hashable(item))
    return items, pos
