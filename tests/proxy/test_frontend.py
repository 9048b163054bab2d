"""ProxyFrontend: the cluster behind one CommandServer-shaped backend.

Drives the frontend both directly (``feed``) and through a
:class:`~repro.net.core.NetSession` — the exact object the TCP server
wraps around a backend — so ``repro-serve --proxy`` compatibility is
covered without a socket.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimCluster
from repro.cluster.migrate import SlotMigrator, plan_shard_drain
from repro.kvs import resp
from repro.kvs.resp import RespError, SimpleString, encode_command
from repro.net.core import NetSession
from repro.proxy import ClusterProxy, ProxyFrontend, TenantConfig


@pytest.fixture()
def front():
    cluster = SimCluster(n_shards=4, method="async")
    proxy = ClusterProxy(
        cluster, tenants=(TenantConfig("acme", prefix="acme:"),)
    )
    return ProxyFrontend(proxy)


def send(front, *args):
    parser = resp.Parser()
    parser.feed(front.feed(encode_command(*args)))
    (value,) = tuple(parser)
    return value


def info_dict(raw: bytes) -> dict[str, str]:
    out = {}
    for line in raw.decode().splitlines():
        if line:
            key, _, value = line.partition(":")
            out[key] = value
    return out


def test_keyed_commands_route_to_owning_shards(front):
    assert send(front, b"SET", b"acme:a", b"1") == b"OK"
    assert send(front, b"GET", b"acme:a") == b"1"
    assert send(front, b"INCR", b"acme:n") == 1
    assert send(front, b"INCR", b"acme:n") == 2
    # Keys really live on their slot owners, not on shard 0.
    cluster = front.proxy.cluster
    assert cluster.shard_for_key(b"acme:n").engine.get(b"acme:n") == b"2"


def test_dbsize_sums_and_flushall_broadcasts(front):
    for i in range(20):
        send(front, b"SET", b"k:%d" % i, b"v")
    assert send(front, b"DBSIZE") == 20
    assert send(front, b"FLUSHALL") == b"OK"
    assert send(front, b"DBSIZE") == 0
    assert front.proxy.cluster.total_keys() == 0


def test_bgsave_broadcasts_to_every_shard(front):
    for i in range(16):
        send(front, b"SET", b"k:%d" % i, b"v")
    reply = send(front, b"BGSAVE")
    assert reply == b"Background saving started"
    for shard in front.proxy.cluster.shards:
        shard.server.finish_background_job()
        assert shard.server.completed_snapshots == 1


def test_cluster_forwarded_to_a_shard(front):
    raw = send(front, b"CLUSTER", b"INFO")
    fields = info_dict(raw)
    assert fields["cluster_enabled"] == "1"
    slots = send(front, b"CLUSTER", b"SLOTS")
    assert len(slots) == 4  # one contiguous range per shard


def test_info_reports_proxy_role_and_counters(front):
    send(front, b"SET", b"acme:a", b"1")
    fields = info_dict(send(front, b"INFO"))
    assert fields["role"] == "proxy"
    assert fields["proxy_shards"] == "4"
    assert fields["proxy_healthy_shards"] == "4"
    assert int(fields["db_keys"]) == 1
    assert int(fields["proxy_commands_routed"]) >= 1


def test_proxy_admin_command(front):
    send(front, b"SET", b"acme:a", b"1")
    tenants = send(front, b"PROXY", b"TENANTS")
    assert tenants == [b"acme", b"shared"]
    usage = send(front, b"PROXY", b"USAGE", b"acme")
    ledger = dict(zip(usage[0::2], usage[1::2]))
    assert ledger[b"writes"] == 1
    metrics = send(front, b"PROXY", b"METRICS")
    assert b"usage.acme.writes" in metrics[0::2]
    bad = send(front, b"PROXY", b"NOPE")
    assert isinstance(bad, RespError)


def test_unknown_keyed_command_is_a_client_error(front):
    reply = send(front, b"ZADD", b"acme:z", b"1", b"m")
    assert isinstance(reply, RespError)
    assert "ZADD" in reply.message


def test_net_session_reports_cluster_mode(front):
    session = NetSession(front, conn_id=7)
    hello = session.dispatch([b"HELLO", b"3"])
    assert hello[b"mode"] == b"cluster"
    assert session.dispatch([b"SET", b"acme:a", b"1"]) == SimpleString(b"OK")
    assert session.dispatch([b"GET", b"acme:a"]) == b"1"
    # CLUSTER passes through to a shard (not the standalone stub).
    raw = session.dispatch([b"CLUSTER", b"INFO"])
    assert info_dict(raw)["cluster_enabled"] == "1"


def test_wire_clients_survive_live_reshard(front):
    session = NetSession(front)
    for i in range(30):
        session.dispatch([b"SET", b"k:%d" % i, b"v%d" % i])
    migrator = SlotMigrator(
        front.proxy.cluster, plan_shard_drain(front.proxy.cluster, source=0)
    )
    migrator.begin()
    i = 0
    while not migrator.done:
        migrator.tick()
        assert session.dispatch([b"GET", b"k:%d" % (i % 30)]) == (
            b"v%d" % (i % 30)
        )
        i += 1
    assert len(front.proxy.cluster.shards[0].engine.store) == 0
    fields = info_dict(session.dispatch([b"INFO"]))
    assert fields["migrating_slots"] == "0"
    # The client must have chased the moving slots: either kind counts
    # (a slot that finalizes the same tick its keys move produces MOVED,
    # a mid-flight key produces ASK).
    redirects = int(fields["proxy_moved_redirects"]) + int(
        fields["proxy_ask_redirects"]
    )
    assert redirects > 0


def test_build_backend_proxy_branch():
    from repro.net.app import ServerConfig, build_backend

    config = ServerConfig(
        engine="async", proxy=True, shards=3, keys=30, sim_size_gb=1.0
    )
    backend = build_backend(config)
    assert isinstance(backend, ProxyFrontend)
    assert len(backend.proxy.cluster.shards) == 3
    assert backend.proxy.cluster.total_keys() == 30
    # The net layer's contract attributes all resolve.
    assert backend.engine.clock is backend.proxy.cluster.clock
    assert b"CLUSTER" in backend._handlers
    session = NetSession(backend)
    assert session.dispatch([b"DBSIZE"]) == 30
