"""The replication master: fork-backed full sync plus the live stream.

This is where the paper's mechanism meets replication.  Redis produces
a full sync with the same ``fork()`` as BGSAVE — the parent stalls for
the page-table copy, then the child serializes the RDB into the
replica's socket.  So *adding a replica is a latency spike*, and the
spike's size depends on the fork engine exactly as in Figures 4/9:
seconds under the default fork at large instances, milliseconds under
Async-fork.  :class:`ReplicationMaster` reproduces that coupling by
running every full sync through the engine's real BGSAVE path (and the
:class:`~repro.kvs.supervisor.SnapshotSupervisor` when one is given, so
fork failures retry, demote, and refuse writes like any other save).

The protocol half follows PSYNC:

* every accepted write is appended to the
  :class:`~repro.repl.backlog.ReplicationBacklog` and streamed to
  online replicas;
* a reconnecting replica offers ``(replid, offset)``; if the backlog
  still covers the offset it gets ``+CONTINUE`` and just the missed
  records — *no fork, no RDB* — otherwise ``+FULLRESYNC``;
* ``WAIT``-style acking drives the ``min-replicas-to-write`` gate
  (:class:`~repro.errors.NoReplicasError` through the engine's write
  gate).

``cron()`` is the master's serverCron slice: it emits heartbeats and
passes through the ``repl.master.cron`` fault site, which is where the
drills SIGKILL the master mid-BGSAVE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (
    MasterDownError,
    NetworkPartitionError,
    NoReplicasError,
    StaleSyncError,
)
from repro.faults.plan import SITE_MASTER_CRON, FaultPlan
from repro.kvs.aof import AofRecord
from repro.kvs.engine import ForkJob, KvEngine
from repro.kvs.supervisor import SnapshotSupervisor
from repro.obs import tracer as obs
from repro.repl.backlog import ReplicationBacklog, derive_replid
from repro.repl.link import ReplLink
from repro.repl.replica import (
    STATE_ONLINE,
    STATE_SYNCING,
    ReplicaNode,
)
from repro.units import ms, us

#: Bytes on the wire for protocol chatter (PING / REPLCONF ACK frames).
HEARTBEAT_BYTES = 14
ACK_BYTES = 34


@dataclass
class FullSyncReport:
    """Timing decomposition of one completed full sync."""

    replica: str
    #: Parent stall of the BGSAVE fork call (the paper's metric).
    fork_stall_ns: int
    #: Child's simulated RDB disk write.
    persist_ns: int
    #: Network time shipping the image to the replica.
    ship_ns: int
    snapshot_bytes: int
    #: Backlog records streamed after the image to catch the replica up.
    tail_records: int
    keys: int


@dataclass
class ReplicaSession:
    """Master-side state of one replica connection."""

    node: ReplicaNode
    link: ReplLink
    connected: bool = True
    #: In-flight full sync (stepped by the master or a serverCron).
    sync_job: Optional[ForkJob] = None
    #: Stream position the in-flight RDB image corresponds to.
    sync_offset: int = 0
    #: Last simulated time any send to this replica succeeded.
    last_interaction_ns: int = 0
    drops: int = field(default=0)


class ReplicationMaster:
    """One master engine plus its replica sessions and backlog."""

    def __init__(
        self,
        engine: KvEngine,
        supervisor: Optional[SnapshotSupervisor] = None,
        seed: int = 0,
        replid_epoch: int = 0,
        start_offset: int = 0,
        backlog_capacity: int = 1 << 20,
        min_replicas_to_write: int = 0,
        max_lag_ns: int = ms(5),
        heartbeat_interval_ns: int = us(200),
        plan: Optional[FaultPlan] = None,
        name: str = "master",
    ) -> None:
        self.engine = engine
        self.supervisor = supervisor
        self.name = name
        self.plan = plan
        self.backlog = ReplicationBacklog(
            derive_replid(seed, replid_epoch),
            capacity_bytes=backlog_capacity,
            start_offset=start_offset,
        )
        self.sessions: dict[str, ReplicaSession] = {}
        self.min_replicas_to_write = min_replicas_to_write
        self.max_lag_ns = max_lag_ns
        self.heartbeat_interval_ns = heartbeat_interval_ns
        self.alive = True
        self.died_at_ns: Optional[int] = None
        self._last_heartbeat_ns = 0
        self.full_syncs = 0
        self.partial_resyncs = 0
        self.full_sync_failures = 0
        self.stream_drops = 0
        self.heartbeats_sent = 0
        #: Writes refused by the min-replicas gate.
        self.gated_writes = 0
        engine.on_write = self._propagate
        engine.write_gate = self._write_gate

    @property
    def clock(self):
        return self.engine.clock

    # -- write path ------------------------------------------------------

    def _write_gate(self) -> None:
        if not self.alive:
            raise MasterDownError(
                f"{self.name} is dead; writes have no master to land on"
            )
        if (
            self.min_replicas_to_write > 0
            and self.good_replicas() < self.min_replicas_to_write
        ):
            self.gated_writes += 1
            raise NoReplicasError(
                "NOREPLICAS Not enough good replicas to write "
                f"(have {self.good_replicas()}, "
                f"need {self.min_replicas_to_write})"
            )

    def _propagate(self, op: str, key: bytes, value: Optional[bytes]) -> None:
        """Engine ``on_write`` hook: backlog + stream to online replicas."""
        record = AofRecord(op, key, value)
        offset = self.backlog.append(record)
        for session in self.sessions.values():
            if not session.connected:
                continue
            if session.node.state != STATE_ONLINE:
                continue  # syncing replicas catch up from the backlog
            try:
                session.link.transfer_ns(
                    record.encoded_size(), what="stream"
                )
            except NetworkPartitionError:
                self._drop_session(session)
                continue
            session.node.apply(record, offset, now=self.clock.now)
            session.last_interaction_ns = self.clock.now

    def wait(self, numreplicas: int) -> int:
        """``WAIT numreplicas``: ask for acks, return how many cover us.

        Sends an ack round to every online replica and counts those
        whose acknowledged offset has reached the current master
        offset.  Like Redis, returns the count (the caller compares it
        with ``numreplicas``) rather than raising.
        """
        target = self.backlog.master_offset
        acked = 0
        for session in self.sessions.values():
            if not session.connected or session.node.state != STATE_ONLINE:
                continue
            try:
                session.link.transfer_ns(ACK_BYTES, what="ack")
            except NetworkPartitionError:
                self._drop_session(session)
                continue
            session.last_interaction_ns = self.clock.now
            if session.node.ack(self.clock.now) >= target:
                acked += 1
            if acked >= numreplicas:
                break
        return acked

    def good_replicas(self, now: Optional[int] = None) -> int:
        """Replicas that are connected, online, and within the lag bound."""
        if now is None:
            now = self.clock.now
        return sum(
            1
            for s in self.sessions.values()
            if s.connected
            and s.node.state == STATE_ONLINE
            and now - s.last_interaction_ns <= self.max_lag_ns
        )

    # -- sync protocol ---------------------------------------------------

    def add_replica(
        self, node: ReplicaNode, link: ReplLink
    ) -> ReplicaSession:
        """Register one replica connection (does not sync it yet)."""
        if node.name in self.sessions:
            raise ValueError(f"replica {node.name!r} already attached")
        session = ReplicaSession(
            node=node, link=link, last_interaction_ns=self.clock.now
        )
        self.sessions[node.name] = session
        return session

    def psync(self, name: str) -> tuple[str, int]:
        """Handle ``PSYNC replid offset`` from one (re)connecting replica.

        Returns ``("CONTINUE", records_streamed)`` after a partial
        resync, or ``("FULLRESYNC", keys_shipped)`` after an inline full
        sync (fork + RDB ship + backlog tail).
        """
        session = self.sessions[name]
        node = session.node
        session.connected = True
        if self.backlog.can_resync_from(node.replid, node.applied_offset):
            entries = self.backlog.records_since(node.applied_offset)
            streamed = 0
            for entry in entries:
                try:
                    session.link.transfer_ns(
                        entry.end - entry.start, what="stream"
                    )
                except NetworkPartitionError:
                    self._drop_session(session)
                    raise
                node.apply(entry.record, entry.end, now=self.clock.now)
                streamed += 1
            node.state = STATE_ONLINE
            node.replid = self.backlog.replid  # adopt the new lineage
            session.last_interaction_ns = self.clock.now
            self.partial_resyncs += 1
            node.partial_resyncs += 1
            if obs.ACTIVE:
                obs.emit_instant(
                    "repl.partial",
                    obs.CAT_KVS,
                    self.clock.now,
                    replica=name,
                    records=streamed,
                )
            return ("CONTINUE", streamed)
        report = self.full_sync(session)
        return ("FULLRESYNC", report.keys)

    def begin_full_sync(self, session: ReplicaSession) -> Optional[ForkJob]:
        """Fork the full-sync BGSAVE without draining the child.

        The supervised path: fork failures retry under the backoff
        policy and count toward async->default demotion.  Returns the
        in-flight job (``None`` when every fork attempt failed, or a
        background job is already running).
        """
        node = session.node
        node.state = STATE_SYNCING
        session.sync_offset = self.backlog.master_offset
        if self.supervisor is not None:
            job = self.supervisor.begin_save()
        else:
            job = self.engine.bgsave()
        if job is None:
            self.full_sync_failures += 1
            node.disconnect()
            return None
        session.sync_job = job
        return job

    def step_full_sync(
        self, session: ReplicaSession
    ) -> Optional[FullSyncReport]:
        """Advance an in-flight full sync one cooperative step.

        Returns ``None`` while the child's page-table copy is still in
        progress, the :class:`FullSyncReport` once the image has been
        persisted, shipped, and the backlog tail streamed.
        """
        job = session.sync_job
        if job is None:
            raise StaleSyncError(
                f"no full sync in flight for {session.node.name!r}"
            )
        if not job.child_copy_done:
            job.step_child()
            return None
        return self._finish_full_sync(session)

    def full_sync(self, session: ReplicaSession) -> FullSyncReport:
        """Run one full sync start to finish (the inline convenience)."""
        job = self.begin_full_sync(session)
        if job is None:
            raise StaleSyncError(
                f"full sync for {session.node.name!r} failed: every "
                "supervised fork attempt rolled back"
            )
        return self._finish_full_sync(session)

    def _finish_full_sync(self, session: ReplicaSession) -> FullSyncReport:
        node = session.node
        job = session.sync_job
        session.sync_job = None
        assert job is not None
        # On a served engine serverCron may have reaped the job already
        # and reported it; the supervisor hears each job once.
        supervisor = None if job.done else self.supervisor
        start_ns = self.clock.now
        try:
            report = job.finish()
        except Exception as exc:
            if supervisor is not None:
                supervisor.observe_completion(exc)
            self.full_sync_failures += 1
            self._drop_session(session)
            raise
        if supervisor is not None:
            supervisor.observe_completion(None)
        snapshot = report.file
        try:
            ship_ns = session.link.transfer_ns(snapshot.size, what="rdb")
        except NetworkPartitionError:
            self.full_sync_failures += 1
            self._drop_session(session)
            raise
        keys = node.load_full_sync(
            snapshot,
            self.backlog.replid,
            session.sync_offset,
            now=self.clock.now,
        )
        # Writes accepted during the sync were buffered in the backlog
        # (Redis: the replica output buffer); stream them now.  A sync
        # so slow its start offset fell off the backlog cannot catch up.
        if self.backlog.start_offset > session.sync_offset:
            self.full_sync_failures += 1
            self._drop_session(session)
            raise StaleSyncError(
                f"full sync of {node.name!r} outlived the backlog "
                f"(start {self.backlog.start_offset} > "
                f"sync offset {session.sync_offset})"
            )
        tail = self.backlog.records_since(session.sync_offset)
        for entry in tail:
            try:
                session.link.transfer_ns(
                    entry.end - entry.start, what="stream"
                )
            except NetworkPartitionError:
                self._drop_session(session)
                raise
            node.apply(entry.record, entry.end, now=self.clock.now)
        session.connected = True
        session.last_interaction_ns = self.clock.now
        self.full_syncs += 1
        if obs.ACTIVE:
            obs.emit(
                "repl.fullsync",
                obs.CAT_KVS,
                start_ns,
                self.clock.now + report.persist_ns + ship_ns,
                replica=node.name,
                bytes=snapshot.size,
                fork_ns=report.fork_call_ns,
                tail=len(tail),
            )
        return FullSyncReport(
            replica=node.name,
            fork_stall_ns=report.fork_call_ns,
            persist_ns=report.persist_ns,
            ship_ns=ship_ns,
            snapshot_bytes=snapshot.size,
            tail_records=len(tail),
            keys=keys,
        )

    # -- liveness --------------------------------------------------------

    def cron(self, now: Optional[int] = None) -> None:
        """The master's serverCron slice: faults, then heartbeats.

        The ``repl.master.cron`` site fires first — a ``sigkill`` spec
        models the whole master process dying (possibly mid-BGSAVE),
        after which no heartbeat ever goes out again and the failure
        detector must take over.
        """
        if not self.alive:
            return
        if now is None:
            now = self.clock.now
        if self.plan is not None:
            spec = self.plan.fire(
                SITE_MASTER_CRON, master=self.name, now=now
            )
            if spec is not None and spec.kind == "sigkill":
                self.kill(now=now)
                return
        if now - self._last_heartbeat_ns < self.heartbeat_interval_ns:
            return
        self._last_heartbeat_ns = now
        for session in self.sessions.values():
            if not session.connected:
                continue
            try:
                session.link.transfer_ns(HEARTBEAT_BYTES, what="heartbeat")
            except NetworkPartitionError:
                self._drop_session(session)
                continue
            session.node.heartbeat(now)
            session.last_interaction_ns = now
            self.heartbeats_sent += 1

    def kill(self, now: Optional[int] = None) -> None:
        """SIGKILL the master: no more writes, streams, or heartbeats.

        An in-flight full-sync child dies with its parent; replicas keep
        whatever they have applied and wait for the failure detector.
        """
        if not self.alive:
            return
        self.alive = False
        self.died_at_ns = now if now is not None else self.clock.now
        for session in self.sessions.values():
            job, session.sync_job = session.sync_job, None
            # A job serverCron already reaped has no child left to kill.
            if job is not None and not job.done:
                job.abort(reason="master-sigkill")
            session.connected = False
        if obs.ACTIVE:
            obs.emit_instant(
                "repl.master.killed",
                obs.CAT_KVS,
                self.died_at_ns,
                master=self.name,
            )

    def detach(self) -> None:
        """Uninstall the engine hooks (old master cleanup after failover)."""
        if self.engine.on_write == self._propagate:
            self.engine.on_write = None
        if self.engine.write_gate == self._write_gate:
            self.engine.write_gate = None

    def _drop_session(self, session: ReplicaSession) -> None:
        session.connected = False
        session.drops += 1
        self.stream_drops += 1
        session.node.disconnect()

    # -- introspection ---------------------------------------------------

    def info(self) -> dict:
        """INFO-replication fields (wired into ``CommandServer.info_extra``)."""
        fields = {
            "role": "master" if self.alive else "master-dead",
            "master_replid": self.backlog.replid,
            "master_replid2": self.backlog.replid2 or "0" * 40,
            "master_repl_offset": self.backlog.master_offset,
            "repl_backlog_first_byte_offset": self.backlog.start_offset,
            "repl_backlog_histlen": self.backlog.buffered_bytes,
            "connected_slaves": sum(
                1 for s in self.sessions.values() if s.connected
            ),
            "sync_full": self.full_syncs,
            "sync_partial_ok": self.partial_resyncs,
            "min_replicas_to_write": self.min_replicas_to_write,
        }
        for index, name in enumerate(sorted(self.sessions)):
            session = self.sessions[name]
            fields[f"slave{index}"] = (
                f"name={name},state={session.node.state},"
                f"offset={session.node.acked_offset},"
                f"lag_ns={self.clock.now - session.last_interaction_ns}"
            )
        return fields
