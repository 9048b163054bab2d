"""MOVED/CROSSSLOT redirection and the cluster client."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimCluster
from repro.cluster.slots import key_slot
from repro.kvs import resp
from repro.kvs.resp import RespError, encode_command
from repro.sim.network import NetworkLink


@pytest.fixture
def cluster() -> SimCluster:
    return SimCluster(n_shards=4, method="async")


def send(server, *args):
    parser = resp.Parser()
    parser.feed(server.feed(encode_command(*args)))
    values = list(parser)
    assert len(values) == 1
    return values[0]


def owner_and_other(cluster, key):
    owner = cluster.slot_map.shard_of_key(key)
    other = (owner + 1) % len(cluster)
    return cluster.shards[owner].server, cluster.shards[other].server


class TestShardRedirects:
    def test_owner_serves_the_key(self, cluster):
        owner, _ = owner_and_other(cluster, b"foo")
        assert send(owner, "SET", "foo", "bar") == b"OK"
        assert send(owner, "GET", "foo") == b"bar"

    def test_wrong_shard_returns_moved(self, cluster):
        _, other = owner_and_other(cluster, b"foo")
        reply = send(other, "GET", "foo")
        assert isinstance(reply, RespError)
        slot = key_slot(b"foo")
        owner_id = cluster.slot_map.shard_of_slot(slot)
        assert reply.message == f"MOVED {slot} 127.0.0.1:{7000 + owner_id}"

    def test_moved_key_is_not_stored(self, cluster):
        _, other = owner_and_other(cluster, b"foo")
        send(other, "SET", "foo", "bar")
        assert len(other.engine.store) == 0

    def test_crossslot_multi_key(self, cluster):
        # foo and bar hash to different slots; DEL spanning them must
        # be refused even when one shard happens to own both.
        assert key_slot(b"foo") != key_slot(b"bar")
        for shard in cluster.shards:
            reply = send(shard.server, "DEL", "foo", "bar")
            assert isinstance(reply, RespError)
            assert reply.message.startswith("CROSSSLOT")

    def test_hash_tags_allow_multi_key(self, cluster):
        owner, _ = owner_and_other(cluster, b"tag")
        send(owner, "SET", "{tag}.a", "1")
        send(owner, "SET", "{tag}.b", "2")
        assert send(owner, "DEL", "{tag}.a", "{tag}.b") == 2

    def test_keyless_commands_always_served(self, cluster):
        for shard in cluster.shards:
            assert send(shard.server, "PING") == b"PONG"


class TestClusterCommand:
    def test_keyslot(self, cluster):
        server = cluster.shards[0].server
        assert send(server, "CLUSTER", "KEYSLOT", "foo") == key_slot(b"foo")

    def test_slots_layout(self, cluster):
        rows = send(cluster.shards[0].server, "CLUSTER", "SLOTS")
        assert len(rows) == 4
        assert rows[0][0] == 0
        assert rows[-1][1] == 16383
        host, port = rows[2][2][0], rows[2][2][1]
        assert host == b"127.0.0.1" and port == 7002

    def test_myid_unique(self, cluster):
        ids = {
            send(shard.server, "CLUSTER", "MYID")
            for shard in cluster.shards
        }
        assert len(ids) == 4

    def test_info(self, cluster):
        text = send(cluster.shards[0].server, "CLUSTER", "INFO").decode()
        assert "cluster_enabled:1" in text
        assert "cluster_known_nodes:4" in text
        assert "cluster_slots_assigned:16384" in text


class TestClusterClient:
    def test_bootstrapped_client_never_redirects(self, cluster):
        client = cluster.client()
        for i in range(50):
            reply = client.execute("SET", f"k{i}", "v")
            assert reply.redirects == 0
        assert client.moved_redirects == 0
        assert cluster.total_keys() == 50

    def test_routes_to_owner_shard(self, cluster):
        client = cluster.client()
        reply = client.execute("SET", "foo", "bar")
        assert reply.shard_id == cluster.slot_map.shard_of_key(b"foo")
        assert bytes(reply.value) == b"OK"

    def test_cold_client_learns_through_moved(self, cluster):
        from repro.cluster.client import ClusterClient

        client = ClusterClient(cluster, bootstrap=False)
        first = client.execute("GET", "foo")
        assert first.redirects in (0, 1)
        again = client.execute("GET", "foo")
        assert again.redirects == 0  # slot cache updated

    def test_redirect_pingpong_raises_typed_error(self, cluster):
        from repro.cluster.client import ClusterClient
        from repro.cluster.slots import SlotMap
        from repro.errors import TooManyRedirectsError

        # Doctor shard 1's view of the map so it claims shard 0 owns
        # everything: a cold client bounces 0 -> 1 -> 0 -> ... forever
        # (a stale-topology disagreement mid-failover).
        doctored = SlotMap(len(cluster))
        doctored._owner = [0] * len(doctored._owner)
        key = next(
            f"k{i}"
            for i in range(100)
            if cluster.slot_map.shard_of_key(f"k{i}") == 1
        )
        cluster.shards[1].server.slot_map = doctored
        client = ClusterClient(cluster, bootstrap=False)
        with pytest.raises(TooManyRedirectsError) as excinfo:
            client.execute("GET", key)
        assert excinfo.value.command == b"GET"
        assert excinfo.value.redirects == client.max_redirects
        # The client burns one redirect budget, re-bootstraps its whole
        # cache from CLUSTER SLOTS, and burns a second budget before
        # giving up — the mutually-stale map defeats the refresh too.
        assert client.slot_cache_refreshes == 1
        assert client.moved_redirects == 2 * (client.max_redirects + 1)

    def test_redirect_limit_is_configurable(self, cluster):
        from repro.cluster.client import ClusterClient
        from repro.errors import TooManyRedirectsError

        doctored_key = next(
            f"k{i}"
            for i in range(100)
            if cluster.slot_map.shard_of_key(f"k{i}") == 1
        )
        from repro.cluster.slots import SlotMap

        doctored = SlotMap(len(cluster))
        doctored._owner = [0] * len(doctored._owner)
        cluster.shards[1].server.slot_map = doctored
        client = ClusterClient(cluster, bootstrap=False, max_redirects=2)
        with pytest.raises(TooManyRedirectsError) as excinfo:
            client.execute("GET", doctored_key)
        assert excinfo.value.redirects == 2

    def test_rtt_accumulates_per_hop(self, cluster):
        from repro.cluster.client import ClusterClient

        link = NetworkLink()
        client = ClusterClient(cluster, link=link, bootstrap=False)
        # Find a key shard 0 does not own, so the first send bounces.
        key = next(
            f"k{i}"
            for i in range(100)
            if cluster.slot_map.shard_of_key(f"k{i}") != 0
        )
        reply = client.execute("GET", key)
        assert reply.redirects == 1
        assert reply.rtt_ns == 2 * link.environment.rtt_ns
        assert link.sends == 2


class TestArgumentEncoding:
    """Non-bytes arguments reach the shard as their RESP bulk strings:
    ``str`` as UTF-8, anything else as its ``str()`` (``5`` -> ``b"5"``),
    the rule ``encode_command`` applies on the wire."""

    def test_int_value_is_stored_as_its_digits(self, cluster):
        client = cluster.client()
        assert client.execute("SET", "k", 5).value == b"OK"
        assert client.execute(b"GET", b"k").value == b"5"
        assert client.execute("INCRBY", "k", 10).value == 15

    def test_int_ttl_is_accepted(self, cluster):
        client = cluster.client()
        client.execute(b"SET", b"k", b"v")
        assert client.execute(b"EXPIRE", b"k", 10).value == 1
        assert client.execute(b"TTL", b"k").value == 10

    def test_execute_on_encodes_ints(self, cluster):
        client = cluster.client()
        reply = client.execute_on(2, b"ECHO", 42)
        assert reply.value == b"42"
