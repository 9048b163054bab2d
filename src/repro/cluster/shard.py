"""One cluster shard: a slot-aware server plus its supervision wiring.

:class:`ShardedCommandServer` is a :class:`~repro.kvs.server.
CommandServer` that owns a slot range and answers the Redis Cluster
redirection protocol — ``MOVED`` for keys it does not serve,
``CROSSSLOT`` for multi-key commands spanning slots — plus the
``CLUSTER`` introspection subcommands clients bootstrap from.

:class:`ClusterShard` bundles the engine, the server and a
:class:`~repro.kvs.supervisor.SnapshotSupervisor`, and records the
snapshot windows (fork start → child persist end) the experiments use to
split disturbed from undisturbed queries per shard.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.slots import NUM_SLOTS, SlotMap, command_keys, key_slot
from repro.kvs.engine import KvEngine, SnapshotJob
from repro.kvs.resp import OK, RespError, RespValue
from repro.kvs.server import CommandServer, SavePoint, command_name
from repro.kvs.supervisor import SnapshotSupervisor
from repro.obs import tracer as obs

CROSSSLOT_ERROR = "CROSSSLOT Keys in request don't hash to the same slot"
TRYAGAIN_ERROR = (
    "TRYAGAIN Multiple keys request during rehashing of slot"
)


class ShardedCommandServer(CommandServer):
    """A ``CommandServer`` that serves one slot range and redirects.

    During a live reshard it also speaks the migration half of the
    protocol: per-slot ``MIGRATING``/``IMPORTING`` states (``CLUSTER
    SETSLOT``), ``ASK`` redirects for keys already moved, the one-shot
    ``ASKING`` admission flag on the importing side, and ``TRYAGAIN``
    for multi-key commands straddling a half-moved slot — the same
    precedence Redis Cluster documents (CROSSSLOT is checked first;
    ASK only ever names a single slot).
    """

    server_mode = b"cluster"

    def __init__(
        self,
        engine: KvEngine,
        shard_id: int,
        slot_map: SlotMap,
        save_points: tuple[SavePoint, ...] = (),
        **kwargs,
    ) -> None:
        super().__init__(engine, save_points=save_points, **kwargs)
        self.shard_id = shard_id
        self.slot_map = slot_map
        #: Slot -> destination shard: keys drain out, misses get ASK.
        self.migrating: dict[int, int] = {}
        #: Slot -> source shard: keys land here behind ASKING.
        self.importing: dict[int, int] = {}
        #: One-shot flag armed by ASKING, consumed by the next keyed
        #: command (admission ticket into an importing slot).
        self._asking = False
        self.ask_redirects_served = 0
        self.tryagain_served = 0
        self._handlers[b"ASKING"] = self._asking_cmd

    def handle(self, command, name: Optional[bytes] = None) -> RespValue:
        try:
            if name is None:
                name = command_name(command)
            redirect = self._redirect_for(name, command[1:])
        except RespError as err:
            redirect = err
        if redirect is not None:
            # serverCron still runs on this event-loop iteration: a
            # bounced command must keep an in-flight child copy moving.
            self._background_cron()
            return redirect
        return super().handle(command, name)

    def _redirect_for(self, name: bytes, args) -> Optional[RespError]:
        keys = command_keys(name, args)
        if not keys:
            return None
        asking, self._asking = self._asking, False
        slots = {key_slot(key) for key in keys}
        if len(slots) > 1:
            return RespError(CROSSSLOT_ERROR)
        slot = slots.pop()
        if self.slot_map.shard_of_slot(slot) == self.shard_id:
            target = self.migrating.get(slot)
            if target is None:
                return None
            # Owner side of an in-flight migration: serve what is still
            # here, ASK for what has moved, TRYAGAIN for a mix.
            present = sum(1 for key in keys if self.engine.exists(key))
            if present == len(keys):
                return None
            if present:
                self.tryagain_served += 1
                return RespError(TRYAGAIN_ERROR)
            self.ask_redirects_served += 1
            return RespError(
                f"ASK {slot} {self.slot_map.address_of(target)}"
            )
        if slot in self.importing and asking:
            return None
        return RespError(self.slot_map.moved_error(slot))

    def _asking_cmd(self, args) -> RespValue:
        self._arity(args, 0, "asking")
        self._asking = True
        return OK

    def _keys_in_slot(self, slot: int) -> list[bytes]:
        """Every resident key hashing to one slot (sorted, so the scan
        order is deterministic across runs).  O(keyspace) like Redis's
        own ``GETKEYSINSLOT`` without the slot index."""
        return sorted(
            key for key in self.engine.store.keys() if key_slot(key) == slot
        )

    def _parse_shard_node(self, raw) -> int:
        """Decode our 40-hex CLUSTER MYID format back to a shard id."""
        text = bytes(raw).decode("ascii", errors="replace")
        try:
            shard_id = int(text, 16)
        except ValueError:
            raise RespError(f"ERR Unknown node {text!r}") from None
        if not 0 <= shard_id < self.slot_map.n_shards:
            raise RespError(f"ERR Unknown node {text!r}")
        return shard_id

    @staticmethod
    def _parse_slot(raw) -> int:
        try:
            slot = int(raw)
        except (TypeError, ValueError):
            raise RespError("ERR Invalid slot") from None
        if not 0 <= slot < NUM_SLOTS:
            raise RespError("ERR Invalid slot")
        return slot

    def _cluster(self, args) -> RespValue:
        """The client-facing CLUSTER subset plus the reshard verbs:
        KEYSLOT|SLOTS|MYID|INFO|SETSLOT|COUNTKEYSINSLOT|GETKEYSINSLOT."""
        if not args:
            raise RespError(
                "ERR wrong number of arguments for 'cluster' command"
            )
        sub = bytes(args[0]).upper()
        if sub == b"KEYSLOT":
            self._arity(args, 2, "cluster keyslot")
            return key_slot(bytes(args[1]))
        if sub == b"SLOTS":
            rows = []
            for rng in self.slot_map.slot_ranges():
                address = self.slot_map.address_of(rng.shard_id)
                host, _, port = address.rpartition(":")
                rows.append([rng.start, rng.end, [host.encode(), int(port)]])
            return rows
        if sub == b"MYID":
            return f"{self.shard_id:040x}".encode()
        if sub == b"SETSLOT":
            return self._setslot(args[1:])
        if sub == b"COUNTKEYSINSLOT":
            self._arity(args, 2, "cluster countkeysinslot")
            return len(self._keys_in_slot(self._parse_slot(args[1])))
        if sub == b"GETKEYSINSLOT":
            self._arity(args, 3, "cluster getkeysinslot")
            slot = self._parse_slot(args[1])
            try:
                count = int(args[2])
            except (TypeError, ValueError):
                raise RespError("ERR Invalid count") from None
            return self._keys_in_slot(slot)[: max(0, count)]
        if sub == b"INFO":
            fields = {
                "cluster_enabled": 1,
                "cluster_state": "ok",
                "cluster_slots_assigned": sum(
                    r.end - r.start + 1 for r in self.slot_map.slot_ranges()
                ),
                "cluster_known_nodes": self.slot_map.n_shards,
                "cluster_size": self.slot_map.n_shards,
                "migrating_slots": len(self.migrating),
                "importing_slots": len(self.importing),
            }
            return "".join(f"{k}:{v}\r\n" for k, v in fields.items()).encode()
        raise RespError(f"ERR unknown CLUSTER subcommand {sub.decode()!r}")

    def _setslot(self, args) -> RespValue:
        """CLUSTER SETSLOT <slot> MIGRATING|IMPORTING|NODE|STABLE [...]."""
        if len(args) < 2:
            raise RespError(
                "ERR wrong number of arguments for 'cluster setslot'"
            )
        slot = self._parse_slot(args[0])
        verb = bytes(args[1]).upper()
        if verb == b"STABLE":
            self.migrating.pop(slot, None)
            self.importing.pop(slot, None)
            return OK
        if len(args) != 3:
            raise RespError(
                "ERR wrong number of arguments for 'cluster setslot'"
            )
        node = self._parse_shard_node(args[2])
        if verb == b"MIGRATING":
            if self.slot_map.shard_of_slot(slot) != self.shard_id:
                raise RespError(
                    f"ERR I'm not the owner of hash slot {slot}"
                )
            self.migrating[slot] = node
            return OK
        if verb == b"IMPORTING":
            if self.slot_map.shard_of_slot(slot) == self.shard_id:
                raise RespError(
                    f"ERR I'm already the owner of hash slot {slot}"
                )
            self.importing[slot] = node
            return OK
        if verb == b"NODE":
            # Finalization: point the shared map at the new owner (the
            # epoch bumps) and drop this node's transient slot state.
            self.slot_map.set_slot_owner(slot, node)
            self.migrating.pop(slot, None)
            self.importing.pop(slot, None)
            return OK
        raise RespError(
            f"ERR unknown CLUSTER SETSLOT verb {verb.decode()!r}"
        )


class ClusterShard:
    """Engine + server + supervisor of one co-located instance."""

    def __init__(
        self,
        shard_id: int,
        engine: KvEngine,
        server: ShardedCommandServer,
        supervisor: SnapshotSupervisor,
    ) -> None:
        self.shard_id = shard_id
        self.engine = engine
        self.server = server
        self.supervisor = supervisor
        #: ``(start_ns, end_ns)`` of every completed snapshot — fork
        #: start through the end of the child's simulated disk write.
        self.snapshot_windows: list[tuple[int, int]] = []
        self.snapshots_failed = 0
        self._window_start: Optional[int] = None
        server.on_job_done = self._on_job_done

    @property
    def dirty(self) -> int:
        """Writes since the last save point (the coordinator's signal)."""
        return self.engine.store.dirty_since_save

    @property
    def mode(self) -> str:
        """The supervisor's degradation mode (``async``/``fallback``).

        A demoted shard snapshots with the *default* fork — its next
        BGSAVE stalls for the full page-table copy, which scheduling
        policies and drills must account for.
        """
        return self.supervisor.mode

    @property
    def snapshotting(self) -> bool:
        """Whether a background save is in flight right now."""
        return self.engine.active_job is not None

    @property
    def snapshots_completed(self) -> int:
        return self.server.completed_snapshots

    def begin_snapshot(self) -> bool:
        """Start one supervised BGSAVE; serverCron drains it.

        Returns ``False`` when a job is already running or every fork
        attempt failed (the supervisor has then refused writes).
        """
        job = self.supervisor.begin_save()
        if job is None:
            return False
        self._window_start = (
            self.engine.clock.now - job.result.stats.parent_call_ns
        )
        return True

    def _on_job_done(self, job, error) -> None:
        self.supervisor.observe_completion(error)
        if not isinstance(job, SnapshotJob):
            return
        if error is not None:
            self.snapshots_failed += 1
            self._window_start = None
            return
        start = self._window_start
        if start is None:  # a job begin_snapshot did not start
            start = self.engine.clock.now
        end = self.engine.clock.now + job.report.persist_ns
        self.snapshot_windows.append((start, end))
        self._window_start = None
        if obs.ACTIVE:
            obs.emit(
                f"cluster.shard{self.shard_id}.snapshot",
                obs.CAT_KVS,
                start,
                end,
                shard=self.shard_id,
                fork_ns=job.report.fork_call_ns,
                persist_ns=job.report.persist_ns,
            )
