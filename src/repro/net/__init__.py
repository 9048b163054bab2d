"""The live-traffic frontend: a real asyncio RESP server.

Everything else in this repository drives the engines with simulated
clients inside one process.  This package puts the simulated engine
behind a real TCP socket speaking enough RESP2/RESP3 that off-the-shelf
clients (``redis-cli``, ``redis-benchmark``, any client library) can
connect — and, through the :class:`~repro.net.bridge.ClockBridge`, makes
the paper's phenomenon observable *on the wire*: a default-fork ``BGSAVE``
stalls the asyncio event loop for the fork call's simulated duration, so
every live connection sees the p99 spike; Async-fork's microsecond parent
call leaves the loop (and the tail) flat.

The RESP2/RESP3 codec itself is :mod:`repro.kvs.resp`, shared with the
in-process command server; it is incremental, torn-read tolerant and
fuzz-hardened.

Layout (app/core split):

``protocol``
    ``encode``, ``StreamParser`` and ``WireProtocolError``: the codec's
    objects under their wire-facing names; re-exports only.
``bridge``
    The sim-time↔wall-clock bridge (the determinism boundary).
``core``
    Per-connection session logic, protocol- and transport-agnostic.
``app``
    The asyncio TCP server tying sessions, bridge, and backend together.
``client``
    A minimal asyncio RESP client (used by ``figx-live`` and CI).
``cli``
    The ``repro-serve`` console entry point.
"""

from repro.net.app import ReproServer, ServerConfig, build_backend
from repro.net.bridge import ClockBridge
from repro.net.client import AsyncRespClient
from repro.net.core import NetSession

__all__ = [
    "AsyncRespClient",
    "ClockBridge",
    "NetSession",
    "ReproServer",
    "ServerConfig",
    "build_backend",
]
