"""In-process cluster dispatch equals the RESP round trip it replaced.

One seeded command stream runs twice on twin clusters: once through the
production ``ClusterClient``/``SlotMigrator`` (argv in, reply values
out, request sizes by arithmetic) and once through the encode -> feed ->
parse reference in ``wire_ref.py``.  The stream crosses MOVED, ASK +
ASKING, TRYAGAIN, CROSSSLOT, slot-cache refreshes, MISCONF refusal,
unknown commands and a ``net.send`` partition/RTT-spike fault plan;
every reply, every store and the fault journal must match.
"""

from __future__ import annotations

import pytest

from repro.cluster.client import ClusterClient
from repro.cluster.cluster import SimCluster
from repro.cluster.migrate import SlotMigrator, SlotMove
from repro.cluster.slots import key_slot
from repro.determinism import seeded_random
from repro.errors import ReproError
from repro.faults.plan import SITE_NET_SEND, FaultPlan, FaultSpec
from repro.kvs.resp import RespError
from repro.sim.network import NetworkLink
from repro.units import us

from tests.cluster.wire_ref import WireClusterClient, WireSlotMigrator

N_SHARDS = 3
KEYS = [f"key:{i}".encode() for i in range(40)]


def shape(value):
    """A reply as comparable data: type and value, errors by message."""
    if isinstance(value, RespError):
        return (type(value), value.message)
    if isinstance(value, list):
        return (type(value), [shape(item) for item in value])
    return (type(value), value)


def tagged_pair(cluster, shard_id: int) -> tuple[bytes, bytes, bytes]:
    """Three hash-tagged keys sharing one slot owned by ``shard_id``."""
    tag = next(
        f"t{i}"
        for i in range(10_000)
        if cluster.slot_map.shard_of_key(f"{{t{i}}}") == shard_id
    )
    return tuple(f"{{{tag}}}{s}".encode() for s in "abc")


class RecordingLink(NetworkLink):
    """A link that keeps the request size of every send it is charged."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.payloads: list[int] = []

    def round_trip_ns(self, payload: int = 0) -> int:
        self.payloads.append(payload)
        return super().round_trip_ns(payload=payload)


def run_stream(seed: int, client_cls, migrator_cls) -> dict:
    cluster = SimCluster(n_shards=N_SHARDS, method="async")
    plan = FaultPlan(
        seed,
        [
            FaultSpec(SITE_NET_SEND, "rtt-spike", after=3, count=4,
                      magnitude=us(300)),
            FaultSpec(SITE_NET_SEND, "partition", after=11, count=2),
            FaultSpec(SITE_NET_SEND, "rtt-spike", after=40, count=None,
                      magnitude=us(50),
                      match=lambda d: d["payload"] > 60),
        ],
    )
    # A cold cache: the client learns the slot map through MOVED.
    client = client_cls(
        cluster, link=RecordingLink(fault_plan=plan), bootstrap=False
    )
    # No redirect budget: its first MOVED forces a CLUSTER SLOTS refresh.
    strict = client_cls(cluster, bootstrap=False, max_redirects=0)
    rng = seeded_random(seed)
    log: list = []

    def record(fn, *args):
        try:
            reply = fn(*args)
        except ReproError as exc:
            log.append(("raised", type(exc).__name__, str(exc)))
        else:
            log.append((shape(reply.value), reply.shard_id, reply.rtt_ns,
                        reply.redirects))

    def random_ops(n: int, keys) -> None:
        for _ in range(n):
            key = rng.choice(keys)
            op = rng.randrange(8)
            if op == 0:
                record(client.execute, "SET", key, rng.randrange(1000))
            elif op == 1:
                record(client.execute, b"GET", key)
            elif op == 2:
                record(client.execute, "INCR", key)
            elif op == 3:
                record(client.execute, "DEL", key)
            elif op == 4:
                record(client.execute, "EXISTS", key)
            elif op == 5:
                record(client.execute, "MGET", key, rng.choice(keys))
            elif op == 6:
                record(client.execute, "APPEND", key, "x" * rng.randrange(9))
            else:
                record(client.execute, "PEXPIRE", key, 10_000)

    random_ops(60, KEYS)
    record(client.execute_on, 1, b"FROBNICATE", b"x")
    record(client.execute, b"FROBNICATE", b"x")
    record(client.execute_on, 2, b"PING")
    record(client.execute_on, 0, b"CLUSTER", b"INFO")
    record(strict.execute, b"GET", next(
        k for k in KEYS if cluster.slot_map.shard_of_key(k) != 0
    ))

    # MISCONF: a shard refusing writes still serves reads.
    refusing = cluster.shard_for_key(KEYS[5])
    refusing.engine.writes_refused = True
    record(client.execute, b"SET", KEYS[5], b"refused")
    record(client.execute, b"GET", KEYS[5])
    refusing.engine.writes_refused = False

    # A live migration, one key per tick, with a snapshot in flight.
    source = cluster.slot_map.shard_of_key(KEYS[0])
    target = (source + 1) % N_SHARDS
    key_a, key_b, key_c = tagged_pair(cluster, source)
    record(client.execute, "SET", key_a, "A")
    record(client.execute, "SET", key_b, "B")
    moves = [SlotMove(key_slot(key_a), target)] + [
        SlotMove(slot, (cluster.slot_map.shard_of_slot(slot) + 1) % N_SHARDS)
        for slot in sorted({key_slot(k) for k in rng.sample(KEYS, 6)})
        if slot != key_slot(key_a)
    ]
    migrator = migrator_cls(cluster, moves, keys_per_tick=1)
    cluster.shards[source].begin_snapshot()
    migrator.begin()
    migrator.tick()  # moves key_a (keys drain in sorted order)
    record(client.execute, "EXISTS", key_a, key_b)  # TRYAGAIN
    record(client.execute, "GET", key_a)  # ASK, then ASKING + GET
    record(client.execute, "SET", key_c, "C")  # new key lands via ASK
    record(client.execute, "MGET", key_a, KEYS[1])  # CROSSSLOT
    while not migrator.done:
        random_ops(3, KEYS + [key_a, key_b, key_c])
        migrator.tick()
    random_ops(40, KEYS + [key_a, key_b, key_c])  # stale cache: MOVED
    log.append(("refresh", client.refresh_slot_cache(via=2)))
    random_ops(20, KEYS)
    for shard in cluster.shards:
        shard.server.finish_background_job()

    return {
        "log": log,
        "stores": [
            {k: shard.engine.store.get(k) for k in shard.engine.store.keys()}
            for shard in cluster.shards
        ],
        "journal": [event.describe() for event in plan.events],
        "payloads": client.link.payloads,
        "owners": (list(client._owner), list(strict._owner)),
        "counters": [
            (c.moved_redirects, c.ask_redirects, c.slot_cache_refreshes,
             c.commands_sent, c.link.sends, c.link.spike_ns_total)
            for c in (client, strict)
        ],
        "migration": (migrator.stats.keys_moved, migrator.stats.bytes_shipped,
                      migrator.stats.busy_events),
        "clock_ns": cluster.clock.now,
        "snapshots": [s.snapshots_completed for s in cluster.shards],
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_call_dispatch_matches_the_resp_round_trip(seed):
    fast = run_stream(seed, ClusterClient, SlotMigrator)
    wire = run_stream(seed, WireClusterClient, WireSlotMigrator)
    assert fast["log"] == wire["log"]
    assert fast["stores"] == wire["stores"]
    assert fast["journal"] == wire["journal"]
    assert fast["payloads"] == wire["payloads"]
    assert fast == wire

    # The stream really crossed every case it claims to.
    text = repr(fast["log"])
    for needle in ("TRYAGAIN", "CROSSSLOT", "unknown command",
                   "MISCONF", "NetworkPartitionError",
                   "UnroutableCommandError", "not an integer"):
        assert needle in text, needle
    (moved, asked, refreshes, *_), (_, _, strict_refreshes, *_) = (
        fast["counters"]
    )
    assert moved > 0 and asked > 0 and refreshes == 1
    assert strict_refreshes == 1
    kinds = {line.split("@")[0].split(":")[-1] for line in fast["journal"]}
    assert kinds == {"partition", "rtt-spike"}
    assert fast["migration"][0] > 0 and sum(fast["snapshots"]) >= 1
