"""The RESP round trip in-process cluster traffic used to take.

Shard servers live in the client's process, so the cluster client and
the slot migrator call them with argv (``CommandServer.call``) and get
back the reply value a RESP peer would parse.  Before that, every hop
serialized the command with ``encode_command``, served it through
``CommandServer.feed`` and parsed the reply bytes with a fresh
``resp.Parser``.  That path lives on only here, literally, as the
reference ``test_dispatch_equivalence.py`` checks the production
dispatch against: same replies, same stores, same fault journal.
"""

from __future__ import annotations

from repro.cluster.client import ClusterClient
from repro.cluster.migrate import SlotMigrator
from repro.kvs import resp
from repro.kvs.resp import encode_command


def wire_call(server, *parts) -> object:
    """One command through ``server.feed``; its single parsed reply."""
    parser = resp.Parser()
    parser.feed(server.feed(encode_command(*parts)))
    (value,) = tuple(parser)
    return value


class WireClusterClient(ClusterClient):
    """A :class:`ClusterClient` whose hops encode, feed and parse."""

    def _send(self, shard_id, argv, size, asking=False):
        payload = encode_command(*argv)
        wire = encode_command(b"ASKING") + payload if asking else payload
        rtt = self.link.round_trip_ns(payload=len(wire))
        server = self.cluster.shards[shard_id].server
        parser = resp.Parser()
        parser.feed(server.feed(wire))
        replies = tuple(parser)
        # With ASKING pipelined the command's reply is the last one.
        return replies[-1], rtt

    def refresh_slot_cache(self, via: int = 0) -> int:
        payload = encode_command(b"CLUSTER", b"SLOTS")
        rtt = self.link.round_trip_ns(payload=len(payload))
        server = self.cluster.shards[via].server
        parser = resp.Parser()
        parser.feed(server.feed(payload))
        (rows,) = tuple(parser)
        for start, end, (host, port) in rows:
            address = f"{bytes(host).decode()}:{port}"
            owner = self.cluster.slot_map.shard_of_address(address)
            for slot in range(start, end + 1):
                self._owner[slot] = owner
        self.slot_cache_refreshes += 1
        return rtt


class WireSlotMigrator(SlotMigrator):
    """A :class:`SlotMigrator` whose commands encode, feed and parse."""

    def _feed(self, shard_id: int, *parts: bytes):
        return wire_call(self.cluster.shards[shard_id].server, *parts)
