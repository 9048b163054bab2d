"""A slot-caching cluster client routed through the simulated network.

Mirrors a "smart" Redis Cluster client: it bootstraps the slot->node
map (``CLUSTER SLOTS``), sends each command straight to the owner, and
follows ``MOVED`` redirects when its cache is stale — every hop paying
one :class:`~repro.sim.network.NetworkLink` round trip, so a redirect
is visible in the measured latency exactly as it is in production.

Resharding adds two more behaviours:

* ``ASK`` redirects (a key already moved out of a ``MIGRATING`` slot)
  are followed by pipelining ``ASKING`` with the retried command to
  the importing node, *without* touching the slot cache — the slot has
  not changed hands yet;
* when a command exhausts its redirect budget, the client re-bootstraps
  its whole slot cache from ``CLUSTER SLOTS`` once before giving up —
  after a reshard or a failover storm the per-slot MOVED learning can
  otherwise chase a mutually-stale map forever.

Routing is *strict*: a command that is in neither
``COMMAND_KEY_SPEC`` nor ``KEYLESS_COMMANDS`` but carries arguments
raises :class:`~repro.errors.UnroutableCommandError` instead of being
silently sent to shard 0.

Shards live in this process, so a hop calls the shard server with the
argv (:meth:`~repro.kvs.server.CommandServer.call`) and gets back the
reply value a RESP peer would parse; no bytes are encoded or parsed.
The link is still charged the request's RESP size
(:func:`~repro.kvs.resp.command_size`), so network fault plans and
``net.rtt`` trace events see the bytes a wire client would send.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cluster.slots import NUM_SLOTS, command_keys, key_slot
from repro.errors import TooManyRedirectsError
from repro.kvs.resp import RespError, command_argv, command_size
from repro.sim.network import NetworkLink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import SimCluster


_ASKING = [b"ASKING"]
_ASKING_SIZE = command_size(_ASKING)
_CLUSTER_SLOTS = [b"CLUSTER", b"SLOTS"]


@dataclass(frozen=True)
class ClusterReply:
    """One routed command's outcome."""

    value: object
    #: The shard that finally served (or errored) the command.
    shard_id: int
    #: Network time spent, summed over every hop.
    rtt_ns: int
    #: Redirect hops (MOVED or ASK) followed before the final reply.
    redirects: int


class ClusterClient:
    """Routes commands to shard servers, following MOVED/ASK redirects."""

    def __init__(
        self,
        cluster: "SimCluster",
        link: Optional[NetworkLink] = None,
        max_redirects: int = 5,
        bootstrap: bool = True,
    ) -> None:
        self.cluster = cluster
        self.link = link if link is not None else NetworkLink()
        self.max_redirects = max_redirects
        #: Slot -> shard cache.  A bootstrapped client starts correct
        #: (``CLUSTER SLOTS``); a cold one learns through MOVED.
        if bootstrap:
            self._owner = [
                cluster.slot_map.shard_of_slot(slot)
                for slot in range(NUM_SLOTS)
            ]
        else:
            self._owner = [0] * NUM_SLOTS
        self.moved_redirects = 0
        self.ask_redirects = 0
        #: Whole-cache re-bootstraps from ``CLUSTER SLOTS`` (the
        #: last-resort path before ``TooManyRedirectsError``).
        self.slot_cache_refreshes = 0
        self.commands_sent = 0

    def execute(self, *command) -> ClusterReply:
        """Send one command; follow redirects; return the final reply."""
        parts = command_argv(command)
        keys = command_keys(parts[0], parts[1:], strict=True)
        return self.send_routed(parts, key_slot(keys[0]) if keys else None)

    def send_routed(
        self, parts: list[bytes], slot: Optional[int]
    ) -> ClusterReply:
        """:meth:`execute` for an argv already converted by
        ``command_argv`` whose key slot the caller computed (``None``
        for a keyless command, which goes to the first shard)."""
        size = command_size(parts)
        shard_id = 0 if slot is None else self._owner[slot]
        rtt_total = 0
        redirects = 0
        asking = False
        refreshed = False
        self.commands_sent += 1
        while True:
            for _ in range(self.max_redirects + 1):
                value, rtt = self._send(shard_id, parts, size, asking)
                asking = False
                rtt_total += rtt
                redirect = self._parse_redirect(value)
                if redirect is None:
                    return ClusterReply(value, shard_id, rtt_total, redirects)
                kind, slot, shard_id = redirect
                redirects += 1
                if kind == "MOVED":
                    # The slot changed hands: learn the new owner.
                    self._owner[slot] = shard_id
                    self.moved_redirects += 1
                else:
                    # ASK is a one-command detour during a migration;
                    # the slot map is *not* updated.
                    self.ask_redirects += 1
                    asking = True
            if refreshed:
                break
            # Last resort before giving up: the per-slot MOVED learning
            # may be chasing a stale map — re-bootstrap the whole cache.
            rtt_total += self.refresh_slot_cache(via=shard_id)
            shard_id = 0 if slot is None else self._owner[slot]
            asking = False
            refreshed = True
        raise TooManyRedirectsError(
            f"command {parts[0]!r} still redirected after "
            f"{self.max_redirects} redirect hops and a full slot-cache "
            "refresh; the slot map views disagree about the owner "
            "(stale reshard or failover?)",
            command=parts[0],
            redirects=self.max_redirects,
        )

    def execute_on(self, shard_id: int, *command) -> ClusterReply:
        """Send one command to an explicit shard, no routing.

        For keyless commands and health probes, where the *caller*
        picks the shard (the proxy's health-based selection); redirects
        are not followed — a keyless command cannot bounce.
        """
        parts = command_argv(command)
        self.commands_sent += 1
        value, rtt = self._send(shard_id, parts, command_size(parts))
        return ClusterReply(value, shard_id, rtt, 0)

    def refresh_slot_cache(self, via: int = 0) -> int:
        """Re-bootstrap the whole slot cache from ``CLUSTER SLOTS``.

        Returns the network time the refresh round trip cost.
        """
        rtt = self.link.round_trip_ns(payload=command_size(_CLUSTER_SLOTS))
        rows = self.cluster.shards[via].server.call(_CLUSTER_SLOTS)
        for start, end, (host, port) in rows:
            address = f"{bytes(host).decode()}:{port}"
            owner = self.cluster.slot_map.shard_of_address(address)
            for slot in range(start, end + 1):
                self._owner[slot] = owner
        self.slot_cache_refreshes += 1
        return rtt

    def _send(
        self, shard_id: int, argv: list[bytes], size: int,
        asking: bool = False,
    ) -> tuple[object, int]:
        """One round trip of ``size`` request bytes; ``asking`` pipelines
        ASKING ahead of the command in the same trip (how real clients
        honour ASK), and only the command's reply is returned."""
        if asking:
            size += _ASKING_SIZE
        rtt = self.link.round_trip_ns(payload=size)
        server = self.cluster.shards[shard_id].server
        if asking:
            server.call(_ASKING)
        return server.call(argv), rtt

    def _parse_redirect(self, value) -> Optional[tuple[str, int, int]]:
        if not isinstance(value, RespError):
            return None
        for kind in ("MOVED", "ASK"):
            if value.message.startswith(kind + " "):
                _, slot_text, address = value.message.split(" ", 2)
                return (
                    kind,
                    int(slot_text),
                    self.cluster.slot_map.shard_of_address(address),
                )
        return None
