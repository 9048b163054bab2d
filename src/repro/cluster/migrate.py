"""Live slot migration: the MIGRATE half of a Redis Cluster reshard.

The :class:`SlotMigrator` drains a set of slots to new owners key by
key, on the simulated clock, while clients keep reading and writing —
the protocol Redis's ``redis-cli --cluster reshard`` drives:

1. mark every planned slot ``IMPORTING`` on its target and
   ``MIGRATING`` on its source (targets first, so an ``ASK`` can never
   arrive before its destination is ready to honour ``ASKING``);
2. per tick, move a bounded batch of keys: ``DUMP`` + ``PTTL`` on the
   source (the RDB encode path), one simulated-network round trip for
   the batch, ``ASKING`` + ``RESTORE`` on the target, and — only after
   the target acked ``OK`` — ``DEL`` on the source (delete-on-ack, so
   a key exists on at least one side at every instant);
3. when a slot has no keys left, finalize with ``CLUSTER SETSLOT
   <slot> NODE <target>`` on both sides, flipping the shared slot map
   (epoch bump) so stale clients re-learn through ``MOVED``.

Commands travel through each shard's ``server.call`` — the same
in-process dispatch the cluster client uses, returning the reply value
a RESP peer would parse — so migration traffic steps serverCron,
contends with in-flight snapshot children, and obeys the redirect
state machine it installs.  Every tick reports ``(shard_id, busy_ns)``
events the queueing solver turns into head-of-line blocking for
concurrently arriving queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cluster.slots import key_slot
from repro.errors import KvsError
from repro.kvs.resp import RespError
from repro.sim.network import NetworkLink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import SimCluster


@dataclass(frozen=True)
class SlotMove:
    """One slot's journey from its current owner to a target shard."""

    slot: int
    target: int


@dataclass
class MigrationStats:
    """What one migration did, for reports and oracles."""

    keys_moved: int = 0
    keys_skipped: int = 0
    bytes_shipped: int = 0
    slots_finalized: int = 0
    ticks: int = 0
    start_ns: Optional[int] = None
    end_ns: Optional[int] = None
    #: ``(shard_id, busy_ns)`` per tick, for the queueing solver.
    busy_events: list[tuple[int, int]] = field(default_factory=list)


class SlotMigrator:
    """Drains planned slots to their targets, a key batch per tick."""

    def __init__(
        self,
        cluster: "SimCluster",
        moves: list[SlotMove],
        link: Optional[NetworkLink] = None,
        keys_per_tick: int = 32,
        slots_per_tick: int = 64,
    ) -> None:
        if keys_per_tick < 1 or slots_per_tick < 1:
            raise ValueError("keys/slots per tick must be >= 1")
        self.cluster = cluster
        self.link = link if link is not None else NetworkLink()
        self.keys_per_tick = keys_per_tick
        self.slots_per_tick = slots_per_tick
        self.stats = MigrationStats()
        self._started = False
        #: Slot -> (source, target, remaining keys), drained in order.
        self._pending: dict[int, tuple[int, int, list[bytes]]] = {}
        self._order: list[int] = []
        seen: set[int] = set()
        for move in moves:
            if move.slot in seen:
                raise ValueError(f"slot {move.slot} planned twice")
            seen.add(move.slot)
            source = cluster.slot_map.shard_of_slot(move.slot)
            if source == move.target:
                continue  # nothing to do, already owned by the target
            self._pending[move.slot] = (source, move.target, [])
            self._order.append(move.slot)

    # ------------------------------------------------------------------

    def _feed(self, shard_id: int, *parts: bytes):
        """One command through a shard's server; its reply value."""
        return self.cluster.shards[shard_id].server.call(list(parts))

    def _feed_ok(self, shard_id: int, *parts: bytes):
        value = self._feed(shard_id, *parts)
        if isinstance(value, RespError):
            raise KvsError(
                f"migration command {parts[0]!r} failed on shard "
                f"{shard_id}: {value.message}"
            )
        return value

    @staticmethod
    def _node_id(shard_id: int) -> bytes:
        return f"{shard_id:040x}".encode()

    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def done(self) -> bool:
        """Whether every planned slot has been drained and finalized."""
        return self._started and not self._pending

    def begin(self) -> None:
        """Mark every planned slot and index the keys to move.

        All slots flip to MIGRATING/IMPORTING up front: a key written
        *after* this instant lands on the target directly (via ASK), so
        the one-time index taken here stays complete — the set of keys
        the source can still hold for a planned slot only shrinks.
        """
        if self._started:
            raise KvsError("migration already started")
        self._started = True
        self.stats.start_ns = self.cluster.clock.now
        for slot in self._order:
            source, target, _ = self._pending[slot]
            self._feed_ok(
                target, b"CLUSTER", b"SETSLOT", str(slot).encode(),
                b"IMPORTING", self._node_id(source),
            )
            self._feed_ok(
                source, b"CLUSTER", b"SETSLOT", str(slot).encode(),
                b"MIGRATING", self._node_id(target),
            )
        # One scan per source shard, bucketing resident keys by slot.
        by_source: dict[int, list[int]] = {}
        for slot in self._order:
            source, _, _ = self._pending[slot]
            by_source.setdefault(source, []).append(slot)
        for source, slots in by_source.items():
            wanted = set(slots)
            store = self.cluster.shards[source].engine.store
            for key in sorted(store.keys()):
                slot = key_slot(key)
                if slot in wanted:
                    self._pending[slot][2].append(key)

    def tick(self) -> list[tuple[int, int]]:
        """Move up to ``keys_per_tick`` keys; returns busy events.

        The returned ``(shard_id, busy_ns)`` pairs are the tick's cost
        model: source-side serialization, one pipelined network round
        trip per source for the whole tick's payload (real resharding
        ships a batch of keys per trip, not one trip per slot), and
        deserialization on the target.  Slots that drained this tick
        are finalized at the end of the tick, after their keys landed.
        """
        if not self._started:
            raise KvsError("migration not started; call begin() first")
        if not self._pending:
            return []
        clock = self.cluster.clock
        self.stats.ticks += 1
        budget = self.keys_per_tick
        slot_budget = self.slots_per_tick
        work: list[tuple[int, int, int, list[bytes]]] = []
        drained: list[tuple[int, int, int]] = []
        while budget > 0 and slot_budget > 0 and self._order:
            slot = self._order[0]
            source, target, keys = self._pending[slot]
            batch = keys[:budget]
            self._pending[slot] = (source, target, keys[len(batch):])
            budget -= len(batch)
            if batch:
                work.append((slot, source, target, batch))
            if not self._pending[slot][2]:
                # Pop from the order now (so the loop advances) but
                # flip ownership only after the keys have landed.
                drained.append((slot, source, target))
                self._order.pop(0)
                slot_budget -= 1
        events = self._move_batches(work)
        for slot, source, target in drained:
            self._finalize(slot, source, target)
        if not self._pending:
            self.stats.end_ns = clock.now
        self.stats.busy_events.extend(events)
        return events

    def run_to_completion(self, max_ticks: int = 1_000_000) -> MigrationStats:
        """Drain everything (tests and small drills use this)."""
        if not self._started:
            self.begin()
        for _ in range(max_ticks):
            if self.done:
                return self.stats
            self.tick()
        raise KvsError("migration did not converge within max_ticks")

    # ------------------------------------------------------------------

    def _move_batches(
        self, work: list[tuple[int, int, int, list[bytes]]]
    ) -> list[tuple[int, int]]:
        clock = self.cluster.clock
        busy: dict[int, int] = {}
        shipped: dict[int, int] = {}
        dumps: list[tuple[int, int, bytes, bytes, int]] = []
        # DUMP + PTTL every key on its source (the RDB encode path).
        for slot, source, target, batch in work:
            t0 = clock.now
            for key in batch:
                payload = self._feed(source, b"DUMP", key)
                if isinstance(payload, RespError) or payload is None:
                    # Vanished under us (client DEL or expiry): the
                    # target already holds authoritative state via ASK.
                    self.stats.keys_skipped += 1
                    continue
                ttl = self._feed(source, b"PTTL", key)
                ttl_ms = ttl if isinstance(ttl, int) and ttl > 0 else 0
                dumps.append((source, target, key, bytes(payload), ttl_ms))
                shipped[source] = shipped.get(source, 0) + len(payload)
            busy[source] = busy.get(source, 0) + (clock.now - t0)
        # One pipelined round trip per source for the tick's payload.
        for source, nbytes in sorted(shipped.items()):
            busy[source] += self.link.round_trip_ns(payload=nbytes)
            self.stats.bytes_shipped += nbytes
        # ASKING + RESTORE on the targets.
        landed: list[tuple[int, bytes]] = []
        for source, target, key, payload, ttl_ms in dumps:
            t0 = clock.now
            self._feed_ok(target, b"ASKING")
            self._feed_ok(
                target, b"RESTORE", key, str(ttl_ms).encode(), payload
            )
            busy[target] = busy.get(target, 0) + (clock.now - t0)
            landed.append((source, key))
        # Delete-on-ack: only keys the target confirmed leave the source.
        for source, key in landed:
            t0 = clock.now
            self._feed_ok(source, b"DEL", key)
            busy[source] = busy.get(source, 0) + (clock.now - t0)
            self.stats.keys_moved += 1
        return [
            (shard_id, busy_ns)
            for shard_id, busy_ns in sorted(busy.items())
            if busy_ns > 0
        ]

    def _finalize(self, slot: int, source: int, target: int) -> None:
        """SETSLOT NODE on both sides: the shared map flips, epoch bumps."""
        slot_arg = str(slot).encode()
        node = self._node_id(target)
        self._feed_ok(target, b"CLUSTER", b"SETSLOT", slot_arg, b"NODE", node)
        self._feed_ok(source, b"CLUSTER", b"SETSLOT", slot_arg, b"NODE", node)
        del self._pending[slot]
        self.stats.slots_finalized += 1


def plan_shard_drain(
    cluster: "SimCluster", source: int, targets: Optional[list[int]] = None
) -> list[SlotMove]:
    """Plan moving *every* slot of one shard to the given targets,
    round-robin — the figx-reshard shape (drain 1 of 4 shards = 25% of
    the key space)."""
    if targets is None:
        targets = [
            shard.shard_id
            for shard in cluster.shards
            if shard.shard_id != source
        ]
    if not targets:
        raise ValueError("no target shards to drain into")
    slots = cluster.slot_map.slots_of(source)
    return [
        SlotMove(slot, targets[index % len(targets)])
        for index, slot in enumerate(slots)
    ]
