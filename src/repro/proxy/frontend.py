"""RESP front end for the proxy: one wire endpoint, many shards.

:class:`ProxyFrontend` subclasses :class:`~repro.kvs.server.
CommandServer` so the PR 9 net layer (``NetSession``/``ReproServer``)
serves it unchanged: ``repro-serve --proxy`` binds one TCP port whose
backend fans out to a whole :class:`~repro.cluster.cluster.SimCluster`.
The subclass keeps the base's wire interface (``feed``/``call``/
``handle``, ``info_extra``) but replaces dispatch:

* keyed commands route through :class:`~repro.proxy.core.ClusterProxy`
  (slot routing, MOVED/ASK following, per-tenant metering), so a live
  reshard under the endpoint stays invisible to wire clients;
* ``BGSAVE``/``FLUSHALL`` broadcast to every shard and ``DBSIZE`` sums
  across them — the machine-wide reading a proxy client expects;
* ``CLUSTER`` forwards to a healthy shard (the slot map is shared, any
  shard answers), and ``HELLO`` reports ``mode=cluster``;
* ``PROXY`` exposes the tenancy/health/usage counters over the wire.

The frontend's ``engine`` is shard 0's — shards share one simulated
clock, which is exactly what the :class:`~repro.net.bridge.ClockBridge`
needs to stall the event loop for any shard's kernel-busy window.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.slots import NUM_SLOTS
from repro.errors import (
    NetworkPartitionError,
    TooManyRedirectsError,
    UnroutableCommandError,
)
from repro.kvs import resp
from repro.kvs.latency_monitor import LatencyMonitor
from repro.kvs.resp import OK, RespError, RespValue, command_argv
from repro.kvs.server import CommandServer, command_name
from repro.proxy.core import ClusterProxy


class ProxyFrontend(CommandServer):
    """A CommandServer whose keyspace is an entire cluster."""

    server_mode = b"cluster"

    def __init__(self, proxy: ClusterProxy) -> None:
        # Shard 0's engine supplies the shared clock and AOF handle the
        # net layer reads; the proxy never serves keys from it directly.
        super().__init__(proxy.cluster.shards[0].engine, save_points=())
        # A monitor of its own: shard 0's forks are not the proxy's.
        self.latency = LatencyMonitor(threshold_ms=self.latency.threshold_ms)
        self.proxy = proxy
        #: Commands the frontend answers itself instead of routing.
        self._local = {
            b"INFO": self._proxy_info,
            b"BGSAVE": self._broadcast_bgsave,
            b"FLUSHALL": self._broadcast_flushall,
            b"DBSIZE": self._sum_dbsize,
            b"CLUSTER": self._forward_cluster,
            b"PROXY": self._proxy_admin,
        }
        # The table lists every command served (``COMMAND COUNT``).
        self._handlers.update(self._local)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def handle(self, command, name: Optional[bytes] = None) -> RespValue:
        """Route one parsed command array through the proxy.

        ServerCron is *not* run here: every routed command reaches a
        shard through ``ShardedCommandServer.call``, which runs that
        shard's own cron (stepping its snapshot child cooperatively).
        """
        try:
            if name is None:
                name = command_name(command)
            local = self._local.get(name)
            if local is not None:
                return local([
                    bytes(p) if isinstance(p, (bytes, bytearray)) else p
                    for p in command[1:]
                ])
            return self.proxy.execute(
                *command_argv(command), name=name
            ).value
        except RespError as err:
            return err
        except UnroutableCommandError as exc:
            return RespError(f"ERR {exc}")
        except TooManyRedirectsError as exc:
            return RespError(f"CLUSTERDOWN {exc}")
        except NetworkPartitionError as exc:
            return RespError(f"ERR shard unreachable: {exc}")

    # ------------------------------------------------------------------
    # machine-wide commands
    # ------------------------------------------------------------------

    def _on_every_shard(self, command: bytes) -> list:
        """Each shard's reply to ``command``; raises the first error."""
        values = []
        for shard in self.proxy.cluster.shards:
            reply = self.proxy.client.execute_on(shard.shard_id, command)
            if isinstance(reply.value, RespError):
                raise reply.value
            values.append(reply.value)
        return values

    def _broadcast_bgsave(self, args) -> RespValue:
        self._arity(args, 0, "bgsave")
        self._on_every_shard(b"BGSAVE")
        return resp.SimpleString(b"Background saving started")

    def _broadcast_flushall(self, args) -> RespValue:
        self._arity(args, 0, "flushall")
        self._on_every_shard(b"FLUSHALL")
        return OK

    def _sum_dbsize(self, args) -> RespValue:
        self._arity(args, 0, "dbsize")
        return sum(self._on_every_shard(b"DBSIZE"))

    def _forward_cluster(self, args) -> RespValue:
        # Any shard can answer: the slot map is one shared object.
        shard_id = self.proxy._pick_keyless()
        reply = self.proxy.client.execute_on(shard_id, b"CLUSTER", *args)
        return reply.value

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def _proxy_admin(self, args) -> RespValue:
        """PROXY TENANTS|USAGE <tenant>|METRICS — proxy observability."""
        if not args:
            raise RespError(
                "ERR wrong number of arguments for 'proxy' command"
            )
        sub = bytes(args[0]).upper()
        if sub == b"TENANTS":
            return [t.name.encode() for t in self.proxy.tenants]
        if sub == b"USAGE":
            self._arity(args, 2, "proxy usage")
            tenant = bytes(args[1]).decode("utf-8", "replace")
            ledger = self.proxy.meter.usage(tenant)
            out: list = []
            for key, value in ledger.as_dict().items():
                out += [key.encode(), value]
            return out
        if sub == b"METRICS":
            out = []
            for key, value in self.proxy.metrics_snapshot().items():
                out += [key.encode(), value]
            return out
        raise RespError(f"ERR unknown PROXY subcommand {sub.decode()!r}")

    def _proxy_info(self, args) -> RespValue:
        cluster = self.proxy.cluster
        healthy = self.proxy.healthy_shards()
        migrating = sum(
            len(shard.server.migrating) for shard in cluster.shards
        )
        importing = sum(
            len(shard.server.importing) for shard in cluster.shards
        )
        fields = {
            "role": "proxy",
            "fork_engine": cluster.method,
            "proxy_shards": len(cluster.shards),
            "proxy_healthy_shards": len(healthy),
            "proxy_tenants": len(self.proxy.tenants),
            "cluster_slots": NUM_SLOTS,
            "migrating_slots": migrating,
            "importing_slots": importing,
            "db_keys": cluster.total_keys(),
            "proxy_commands_routed": self.proxy.client.commands_sent,
            "proxy_moved_redirects": self.proxy.client.moved_redirects,
            "proxy_ask_redirects": self.proxy.client.ask_redirects,
            "proxy_slot_cache_refreshes": (
                self.proxy.client.slot_cache_refreshes
            ),
        }
        if self.info_extra is not None:
            fields.update(self.info_extra())
        text = "".join(f"{k}:{v}\r\n" for k, v in fields.items())
        return text.encode()
