"""A shard-pooling proxy: tenancy, metering, health, connection limits.

:class:`ClusterProxy` is the "millions of users" tier of ROADMAP item
2: many tenants share one :class:`~repro.cluster.cluster.SimCluster`
behind a single entry point.  Per command it

* resolves the tenant by longest keyspace-prefix match and meters the
  call in a :class:`~repro.metrics.usage.UsageMeter`;
* routes keyed commands through an embedded
  :class:`~repro.cluster.client.ClusterClient` (MOVED/ASK following,
  slot-cache refresh — a reshard under the proxy is invisible to
  tenants beyond the redirect RTTs);
* routes keyless commands to a *healthy* shard, round-robin over the
  shards whose per-shard :class:`~repro.repl.detector.FailureDetector`
  has not declared them down (PING probes advance each shard's
  ``last_master_contact_ns``, exactly the contract the PR 7 detector
  reads from replicas).

Connection admission is per tenant: ``connect``/``release`` enforce
``TenantConfig.max_connections`` and the meter records refusals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cluster.client import ClusterClient, ClusterReply
from repro.cluster.slots import command_keys, key_slot
from repro.errors import NetworkPartitionError
from repro.kvs.resp import RespError, command_argv
from repro.metrics.usage import UsageMeter
from repro.repl.detector import FailureDetector
from repro.sim.network import NetworkLink
from repro.units import ms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import SimCluster


@dataclass(frozen=True)
class TenantConfig:
    """One tenant: a keyspace prefix plus admission limits."""

    name: str
    #: Keys starting with this prefix belong to the tenant; the empty
    #: prefix is the catch-all.  Longest match wins.
    prefix: str = ""
    #: Concurrent connections admitted; 0 means unlimited.
    max_connections: int = 0


class ShardHealth:
    """One shard's liveness record, shaped like a replica node.

    Exposes the two attributes :class:`~repro.repl.detector.
    FailureDetector` reads — ``name`` and ``last_master_contact_ns`` —
    so the proxy reuses the PR 7 quorum detector unchanged (quorum 1:
    the proxy is the only observer of its shard links).
    """

    def __init__(self, shard_id: int, now_ns: int) -> None:
        self.shard_id = shard_id
        self.name = f"shard{shard_id}"
        self.last_master_contact_ns = now_ns
        self.probes_ok = 0
        self.probes_failed = 0


class ClusterProxy:
    """Routes tenant traffic into the cluster through one entry point."""

    def __init__(
        self,
        cluster: "SimCluster",
        tenants: tuple[TenantConfig, ...] = (),
        link: Optional[NetworkLink] = None,
        max_redirects: int = 5,
        health_timeout_ns: int = ms(50),
        probe_interval_ns: int = ms(10),
    ) -> None:
        self.cluster = cluster
        self.client = ClusterClient(
            cluster, link=link, max_redirects=max_redirects
        )
        self.meter = UsageMeter()
        #: Longest prefix first, so the most specific tenant wins; a
        #: catch-all (empty prefix) is appended when none is given.
        ranked = sorted(tenants, key=lambda t: len(t.prefix), reverse=True)
        if not any(t.prefix == "" for t in ranked):
            ranked.append(TenantConfig("shared", prefix=""))
        self.tenants: tuple[TenantConfig, ...] = tuple(ranked)
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self._by_name = {t.name: t for t in self.tenants}
        self._active_connections = {t.name: 0 for t in self.tenants}
        now = cluster.clock.now
        self.health = [
            ShardHealth(shard.shard_id, now) for shard in cluster.shards
        ]
        self.detectors = [
            FailureDetector([record], timeout_ns=health_timeout_ns, quorum=1)
            for record in self.health
        ]
        self.probe_interval_ns = probe_interval_ns
        self._last_probe_ns: Optional[int] = None
        self._keyless_rr = 0

    # ------------------------------------------------------------------
    # tenancy and admission
    # ------------------------------------------------------------------

    def tenant_for_key(self, key: bytes) -> TenantConfig:
        """Longest-prefix tenant of one key (catch-all guarantees a hit)."""
        text = key.decode("utf-8", errors="replace")
        for tenant in self.tenants:
            if text.startswith(tenant.prefix):
                return tenant
        raise AssertionError("unreachable: catch-all tenant always matches")

    def connect(self, tenant_name: str) -> bool:
        """Admit one connection for a tenant; ``False`` when at limit."""
        tenant = self._by_name[tenant_name]
        usage = self.meter.usage(tenant_name)
        active = self._active_connections[tenant_name]
        if tenant.max_connections and active >= tenant.max_connections:
            usage.connections_refused += 1
            return False
        self._active_connections[tenant_name] = active + 1
        usage.connections_opened += 1
        return True

    def release(self, tenant_name: str) -> None:
        """Return one admitted connection."""
        active = self._active_connections[tenant_name]
        if active <= 0:
            raise ValueError(f"tenant {tenant_name!r} has no connection out")
        self._active_connections[tenant_name] = active - 1
        self.meter.usage(tenant_name).connections_closed += 1

    def active_connections(self, tenant_name: str) -> int:
        return self._active_connections[tenant_name]

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def probe(self) -> list[int]:
        """PING every shard; returns the ids that answered.

        A successful reply advances the shard's ``last_master_contact_ns``
        — the only signal its failure detector reads.  Partitioned or
        erroring shards simply do not advance and age toward down.
        """
        self._last_probe_ns = self.cluster.clock.now
        alive = []
        for record in self.health:
            try:
                reply = self.client.execute_on(record.shard_id, b"PING")
            except NetworkPartitionError:
                record.probes_failed += 1
                continue
            if isinstance(reply.value, RespError):
                record.probes_failed += 1
                continue
            record.probes_ok += 1
            record.last_master_contact_ns = self.cluster.clock.now
            alive.append(record.shard_id)
        return alive

    def _maybe_probe(self) -> None:
        now = self.cluster.clock.now
        if (
            self._last_probe_ns is None
            or now - self._last_probe_ns >= self.probe_interval_ns
        ):
            self.probe()

    def healthy_shards(self) -> list[int]:
        """Shards whose detector does not currently declare them down."""
        now = self.cluster.clock.now
        return [
            record.shard_id
            for record, detector in zip(self.health, self.detectors)
            if not detector.check(now)
        ]

    def health_snapshot(self) -> dict[str, int]:
        """Dotted health counters (merged into reports next to usage)."""
        snap: dict[str, int] = {}
        healthy = set(self.healthy_shards())
        for record in self.health:
            base = f"proxy.health.{record.name}"
            snap[f"{base}.ok"] = record.probes_ok
            snap[f"{base}.failed"] = record.probes_failed
            snap[f"{base}.healthy"] = int(record.shard_id in healthy)
        return dict(sorted(snap.items()))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def execute(
        self, *command, name: Optional[bytes] = None
    ) -> ClusterReply:
        """Route one command; meter it under its tenant.

        A caller that already converted ``command`` with
        ``command_argv`` and upper-cased its name (the proxy frontend)
        passes the name; otherwise both are done here.
        """
        if name is None:
            parts = command_argv(command)
            name = parts[0].upper()
        else:
            parts = list(command)
        self._maybe_probe()
        keys = command_keys(name, parts[1:], strict=True)
        if keys:
            tenant = self.tenant_for_key(keys[0])
            reply = self.client.send_routed(parts, key_slot(keys[0]))
        else:
            tenant = self._by_name.get("shared") or self.tenants[-1]
            reply = self.client.execute_on(self._pick_keyless(), *parts)
        self.meter.record_command(
            tenant.name,
            name,
            keyed=bool(keys),
            rtt_ns=reply.rtt_ns,
            redirects=reply.redirects,
            error=isinstance(reply.value, RespError),
        )
        return reply

    def _pick_keyless(self) -> int:
        """Round-robin over healthy shards (all shards when none are)."""
        healthy = self.healthy_shards()
        if not healthy:
            healthy = [shard.shard_id for shard in self.cluster.shards]
        self._keyless_rr += 1
        return healthy[self._keyless_rr % len(healthy)]

    def metrics_snapshot(self) -> dict[str, int]:
        """Usage + health + routing counters under dotted names."""
        snap = dict(self.meter.snapshot())
        snap.update(self.health_snapshot())
        snap["proxy.client.moved_redirects"] = self.client.moved_redirects
        snap["proxy.client.ask_redirects"] = self.client.ask_redirects
        snap["proxy.client.slot_cache_refreshes"] = (
            self.client.slot_cache_refreshes
        )
        snap["proxy.client.commands_sent"] = self.client.commands_sent
        return dict(sorted(snap.items()))
