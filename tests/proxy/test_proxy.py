"""Proxy tier: tenancy, metering, health selection, connection limits."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimCluster
from repro.cluster.migrate import SlotMigrator, plan_shard_drain
from repro.errors import NetworkPartitionError
from repro.proxy import ClusterProxy, TenantConfig
from repro.units import ms


def make_proxy(**kwargs):
    cluster = SimCluster(n_shards=4, method="async")
    tenants = kwargs.pop(
        "tenants",
        (
            TenantConfig("acme", prefix="acme:", max_connections=2),
            TenantConfig("beta", prefix="beta:"),
        ),
    )
    return ClusterProxy(cluster, tenants=tenants, **kwargs)


class PartitionedLink:
    """A link stub that drops every send while ``down`` is set."""

    def __init__(self) -> None:
        self.down = False
        self.sends = 0

    def round_trip_ns(self, payload: int = 0) -> int:
        if self.down:
            raise NetworkPartitionError("stub partition")
        self.sends += 1
        return 200_000


# ----------------------------------------------------------------------
# tenancy
# ----------------------------------------------------------------------


def test_longest_prefix_tenant_wins():
    proxy = make_proxy(
        tenants=(
            TenantConfig("broad", prefix="a:"),
            TenantConfig("narrow", prefix="a:b:"),
        )
    )
    assert proxy.tenant_for_key(b"a:b:key").name == "narrow"
    assert proxy.tenant_for_key(b"a:other").name == "broad"
    # No configured prefix matches: the implicit catch-all takes it.
    assert proxy.tenant_for_key(b"x:key").name == "shared"


def test_duplicate_tenant_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        make_proxy(
            tenants=(
                TenantConfig("twin", prefix="a:"),
                TenantConfig("twin", prefix="b:"),
            )
        )


def test_commands_metered_under_owning_tenant():
    proxy = make_proxy()
    proxy.execute(b"SET", b"acme:k", b"v")
    proxy.execute(b"GET", b"acme:k")
    proxy.execute(b"SET", b"beta:k", b"v")
    proxy.execute(b"GET", b"nobodys:k")
    proxy.execute(b"PING")
    acme = proxy.meter.usage("acme")
    assert (acme.commands, acme.writes, acme.reads) == (2, 1, 1)
    assert proxy.meter.usage("beta").writes == 1
    shared = proxy.meter.usage("shared")
    assert shared.reads == 1  # the unmatched key
    assert shared.keyless == 1  # PING
    assert acme.rtt_ns > 0


def test_int_arguments_reach_the_shard_as_digits():
    proxy = make_proxy()
    assert proxy.execute("SET", "acme:k", 5).value == b"OK"
    assert proxy.execute(b"GET", b"acme:k").value == b"5"
    assert proxy.execute(b"EXPIRE", b"acme:k", 10).value == 1
    assert proxy.execute(b"ECHO", 7).value == b"7"


def test_redirects_metered_per_tenant():
    proxy = make_proxy()
    # Poison the embedded client's slot cache so the first send bounces.
    from repro.cluster.slots import key_slot

    slot = key_slot(b"acme:k")
    owner = proxy.cluster.slot_map.shard_of_slot(slot)
    proxy.client._owner[slot] = (owner + 1) % 4
    reply = proxy.execute(b"SET", b"acme:k", b"v")
    assert reply.value is not None
    assert proxy.meter.usage("acme").redirects == 1


# ----------------------------------------------------------------------
# connection limits
# ----------------------------------------------------------------------


def test_connection_limit_refuses_and_meters():
    proxy = make_proxy()
    assert proxy.connect("acme")
    assert proxy.connect("acme")
    assert not proxy.connect("acme")  # max_connections=2
    usage = proxy.meter.usage("acme")
    assert usage.connections_opened == 2
    assert usage.connections_refused == 1
    proxy.release("acme")
    assert proxy.connect("acme")  # slot freed
    assert proxy.active_connections("acme") == 2


def test_unlimited_tenant_never_refused():
    proxy = make_proxy()
    for _ in range(50):
        assert proxy.connect("beta")
    assert proxy.meter.usage("beta").connections_refused == 0


def test_release_without_connect_raises():
    proxy = make_proxy()
    with pytest.raises(ValueError):
        proxy.release("acme")


# ----------------------------------------------------------------------
# health
# ----------------------------------------------------------------------


def test_probe_marks_all_healthy():
    proxy = make_proxy()
    assert proxy.probe() == [0, 1, 2, 3]
    assert proxy.healthy_shards() == [0, 1, 2, 3]
    assert all(r.probes_ok == 1 for r in proxy.health)


def test_partitioned_shards_age_out_and_recover():
    link = PartitionedLink()
    proxy = make_proxy(link=link, health_timeout_ns=ms(5))
    clock = proxy.cluster.clock
    proxy.probe()
    link.down = True
    clock.advance(ms(10))
    proxy.probe()  # every send dropped: contact times stay stale
    assert all(r.probes_failed == 1 for r in proxy.health)
    assert proxy.healthy_shards() == []
    # Keyless routing must still find *some* shard when all look down.
    shard = proxy._pick_keyless()
    assert 0 <= shard < 4
    link.down = False
    proxy.probe()
    assert proxy.healthy_shards() == [0, 1, 2, 3]


def test_keyless_avoids_unhealthy_shard():
    proxy = make_proxy(health_timeout_ns=ms(5))
    clock = proxy.cluster.clock
    proxy.probe()
    # Shard 2 goes quiet: age only its contact time past the timeout.
    clock.advance(ms(10))
    for record in proxy.health:
        if record.shard_id != 2:
            record.last_master_contact_ns = clock.now
    assert proxy.healthy_shards() == [0, 1, 3]
    picks = {proxy._pick_keyless() for _ in range(12)}
    assert picks == {0, 1, 3}


def test_health_snapshot_shape():
    proxy = make_proxy()
    proxy.probe()
    snap = proxy.health_snapshot()
    assert snap["proxy.health.shard0.ok"] == 1
    assert snap["proxy.health.shard0.healthy"] == 1


# ----------------------------------------------------------------------
# routing through a live reshard
# ----------------------------------------------------------------------


def test_tenant_traffic_survives_live_reshard():
    proxy = make_proxy()
    for i in range(40):
        proxy.execute(b"SET", b"acme:k:%d" % i, b"v%d" % i)
    migrator = SlotMigrator(
        proxy.cluster, plan_shard_drain(proxy.cluster, source=0)
    )
    migrator.begin()
    seen_redirect = False
    i = 0
    while not migrator.done:
        migrator.tick()
        reply = proxy.execute(b"GET", b"acme:k:%d" % (i % 40))
        assert reply.value == b"v%d" % (i % 40)
        seen_redirect = seen_redirect or reply.redirects > 0
        i += 1
    for i in range(40):
        assert proxy.execute(b"GET", b"acme:k:%d" % i).value == b"v%d" % i
    assert len(proxy.cluster.shards[0].engine.store) == 0
    assert proxy.meter.usage("acme").redirects > 0
    assert seen_redirect


def test_metrics_snapshot_merges_sections():
    proxy = make_proxy()
    proxy.execute(b"SET", b"acme:k", b"v")
    snap = proxy.metrics_snapshot()
    assert "usage.acme.writes" in snap
    assert "proxy.health.shard0.ok" in snap
    assert snap["proxy.client.commands_sent"] >= 1
