"""A RESP command server over the storage engine.

Ties the pieces into something shaped like a real Redis front end:

* RESP request parsing / reply encoding through :mod:`repro.kvs.resp`,
  the same hardened codec the live frontend (:mod:`repro.net`) uses
  (``feed``), and an in-process entry for callers in the same process
  (``call``: argv in, the parsed reply value out);
* one check of each request's shape (:func:`command_name`), whose
  result ``handle`` takes from callers that already made it;
* a command table (strings subset + persistence + introspection);
* the classic ``save <seconds> <changes>`` snapshot policy, evaluated
  against the simulated clock like Redis's serverCron;
* cooperative background-job progress: each served command advances
  the engine's in-flight job (:attr:`~repro.kvs.engine.KvEngine.
  active_job`, whoever started it) by one Async-fork copy step and, on a
  server built with ``snapshot_slice_bytes`` (the live wire server), one
  slice of the BGSAVE child's serialization, mimicking how the real
  child runs concurrently with the event loop;
* ``INFO``/``LASTSAVE`` job status, from the engine's announcement of
  each job's end, whoever started, reaped or killed the job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import (
    CorruptSnapshotError,
    DiskError,
    ForkError,
    KvsError,
    SnapshotInProgressError,
)
from repro.kvs import rdb, resp
from repro.kvs.engine import KvEngine, RewriteJob, SnapshotJob
from repro.kvs.resp import OK, PONG, RespError, RespValue
from repro.units import MSEC, SEC


#: Background-job failures serverCron records instead of raising.
_JOB_ERRORS = (DiskError, ForkError, KvsError)


def command_name(command) -> bytes:
    """The upper-cased name of one parsed request; anything but a
    non-empty array led by a bulk string raises its error reply."""
    if not isinstance(command, list) or not command:
        raise RespError("ERR protocol: expected a command array")
    first = command[0]
    if not isinstance(first, (bytes, bytearray)):
        raise RespError("ERR protocol: command name must be a string")
    return bytes(first).upper()


@dataclass(frozen=True)
class SavePoint:
    """One ``save <seconds> <changes>`` rule."""

    seconds: int
    changes: int

    def due(self, elapsed_ns: int, dirty: int) -> bool:
        """Whether this rule triggers a background save."""
        return elapsed_ns >= self.seconds * SEC and dirty >= self.changes


#: Redis's default rules (redis.conf): the paper quotes the 60 s/10000
#: one as the reason snapshot queries are not rare.
DEFAULT_SAVE_POINTS = (
    SavePoint(3600, 1),
    SavePoint(300, 100),
    SavePoint(60, 10_000),
)


class CommandServer:
    """RESP front end for one engine."""

    #: What ``HELLO`` reports as ``mode``.
    server_mode = b"standalone"

    def __init__(
        self,
        engine: KvEngine,
        save_points: tuple[SavePoint, ...] = DEFAULT_SAVE_POINTS,
        snapshot_slice_bytes: int = 0,
    ) -> None:
        self.engine = engine
        self.save_points = save_points
        #: When set, serverCron serializes a BGSAVE child's snapshot this
        #: many payload bytes per command instead of all at once when
        #: the copy is done (the live wire server sets it; simulated
        #: servers keep the one-shot reap).
        self.snapshot_slice_bytes = snapshot_slice_bytes
        self.parser = resp.Parser()
        #: The engine's latency monitor (``LATENCY`` reads it).
        self.latency = engine.latency
        self._last_save_ns = engine.clock.now
        #: The engine's BGSAVEs that ended cleanly (``INFO``'s
        #: ``completed_snapshots``).
        self.completed_snapshots = 0
        self._failed_jobs = 0
        #: ``ok`` until a background save fails (Redis's
        #: ``rdb_last_bgsave_status``); the next clean save resets it.
        self._last_bgsave_status = "ok"
        #: Optional hook ``fn(job, failure_reason_or_None)`` fired once
        #: per job end of the engine (the shard's snapshot windows).
        self.on_job_done: Optional[Callable] = None
        engine.job_listeners.append(self._job_ended)
        #: Optional hook returning extra ``INFO`` fields; the
        #: replication layer attaches its role/offset/link section here.
        self.info_extra: Optional[Callable[[], dict]] = None
        self._handlers: dict[bytes, Callable] = {
            b"PING": self._ping,
            b"ECHO": self._echo,
            b"SET": self._set,
            b"GET": self._get,
            b"SETNX": self._setnx,
            b"GETSET": self._getset,
            b"APPEND": self._append,
            b"STRLEN": self._strlen,
            b"INCR": self._incr,
            b"INCRBY": self._incrby,
            b"DECR": self._decr,
            b"DECRBY": self._decrby,
            b"MSET": self._mset,
            b"MGET": self._mget,
            b"TYPE": self._type,
            b"EXPIRE": self._expire,
            b"PEXPIRE": self._pexpire,
            b"TTL": self._ttl,
            b"PTTL": self._pttl,
            b"PERSIST": self._persist,
            b"DUMP": self._dump,
            b"RESTORE": self._restore,
            b"DEL": self._del,
            b"UNLINK": self._del,
            b"EXISTS": self._exists,
            b"DBSIZE": self._dbsize,
            b"FLUSHALL": self._flushall,
            b"BGSAVE": self._bgsave,
            b"BGREWRITEAOF": self._bgrewriteaof,
            b"LASTSAVE": self._lastsave,
            b"INFO": self._info,
            b"LATENCY": self._latency,
            b"CLUSTER": self._cluster,
        }

    # ------------------------------------------------------------------
    # wire interface
    # ------------------------------------------------------------------

    def feed(self, data: bytes) -> bytes:
        """Process raw request bytes; returns the concatenated replies."""
        self.parser.feed(data)
        replies = []
        for command in self.parser:
            replies.append(resp.encode(self.handle(command)))
        return b"".join(replies)

    def call(self, argv: list) -> RespValue:
        """Serve one command array in process; returns the reply value.

        The value is what a RESP peer would parse from :meth:`feed`'s
        reply bytes (:func:`~repro.kvs.resp.reply_value`), so in-process
        callers (the cluster client, the slot migrator) see exactly what
        a wire client sees without a serialize/parse round trip.
        """
        return resp.reply_value(self.handle(argv))

    def handle(self, command, name: Optional[bytes] = None) -> RespValue:
        """Dispatch one parsed command array; returns the reply value.

        A caller that already took the request's :func:`command_name`
        passes it as ``name``, so the request is not checked again.
        """
        self._background_cron()
        try:
            if name is None:
                name = command_name(command)
            handler = self._handlers.get(name)
            if handler is None:
                shown = name.decode("utf-8", errors="backslashreplace")
                return RespError(f"ERR unknown command '{shown}'")
            return handler(command[1:])
        except RespError as err:
            return err

    # ------------------------------------------------------------------
    # background machinery
    # ------------------------------------------------------------------

    def _background_cron(self) -> None:
        """ServerCron: advance the child copy, reap it, evaluate save points.

        Mirrors Redis's serverCron: each tick steps the engine's job,
        whoever started it, and once the child's copy needs no more
        parent help takes one :meth:`_job_step` towards reaping it.
        """
        job = self.engine.active_job
        if job is not None:
            job.step_child()
            if job.failed or job.child_copy_done:
                self._job_step(job)
            return
        elapsed = self.engine.clock.now - self._last_save_ns
        dirty = self.engine.store.dirty_since_save
        if any(p.due(elapsed, dirty) for p in self.save_points):
            try:
                self.engine.bgsave()
            except ForkError:
                # §4.4 rollback inside the fork call: the dirty counter
                # is intact, so a later cron tick retries.
                pass

    def _job_step(self, job) -> None:
        """Write one slice of a BGSAVE child (``snapshot_slice_bytes``),
        or finish or bury the job; the tick after the last slice reaps,
        as Redis's ``checkChildrenDone`` notices a child only once it
        has exited.  A failure is recorded, never raised into a reply."""
        try:
            if (
                self.snapshot_slice_bytes
                and isinstance(job, SnapshotJob)
                and not job.failed
                and not job.serialized
            ):
                job.write_slice(self.snapshot_slice_bytes)
                return
            job.finish()
        except _JOB_ERRORS:
            pass

    def finish_background_job(self):
        """Drain the active background job (tests and shutdown use this)."""
        job = self.engine.active_job
        return None if job is None else job.finish()

    def _job_ended(self, job) -> None:
        """Record how a job ended, then fire ``on_job_done``."""
        reason = job.failure_reason
        if isinstance(job, SnapshotJob):
            self._last_bgsave_status = "ok" if reason is None else "err"
        if reason is not None:
            self._failed_jobs += 1
        elif isinstance(job, SnapshotJob):
            self.completed_snapshots += 1
            self._last_save_ns = self.engine.clock.now
        if self.on_job_done is not None:
            self.on_job_done(job, reason)

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    @staticmethod
    def _arity(args, expected: int, name: str) -> None:
        if len(args) != expected:
            raise RespError(
                f"ERR wrong number of arguments for '{name}' command"
            )

    def _ping(self, args) -> RespValue:
        if args:
            self._arity(args, 1, "ping")
            return bytes(args[0])
        return PONG

    def _echo(self, args) -> RespValue:
        self._arity(args, 1, "echo")
        return bytes(args[0])

    def _set(self, args) -> RespValue:
        self._arity(args, 2, "set")
        self.engine.set(bytes(args[0]), bytes(args[1]))
        return OK

    def _get(self, args) -> RespValue:
        self._arity(args, 1, "get")
        return self.engine.get(bytes(args[0]))

    def _setnx(self, args) -> RespValue:
        self._arity(args, 2, "setnx")
        if self.engine.exists(bytes(args[0])):
            return 0
        self.engine.set(bytes(args[0]), bytes(args[1]))
        return 1

    def _getset(self, args) -> RespValue:
        self._arity(args, 2, "getset")
        old = self.engine.get(bytes(args[0]))
        self.engine.set(bytes(args[0]), bytes(args[1]))
        return old

    def _append(self, args) -> RespValue:
        self._arity(args, 2, "append")
        old = self.engine.get(bytes(args[0])) or b""
        value = old + bytes(args[1])
        self.engine.set(bytes(args[0]), value)
        return len(value)

    def _strlen(self, args) -> RespValue:
        self._arity(args, 1, "strlen")
        value = self.engine.get(bytes(args[0]))
        return 0 if value is None else len(value)

    @staticmethod
    def _as_int(raw, what: str = "value") -> int:
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise RespError(
                f"ERR {what} is not an integer or out of range"
            ) from None

    def _incr_by(self, key: bytes, delta: int) -> int:
        current = self.engine.get(key)
        total = (0 if current is None else self._as_int(current)) + delta
        self.engine.set(key, str(total).encode())
        return total

    def _incr(self, args) -> RespValue:
        self._arity(args, 1, "incr")
        return self._incr_by(bytes(args[0]), 1)

    def _incrby(self, args) -> RespValue:
        self._arity(args, 2, "incrby")
        return self._incr_by(bytes(args[0]), self._as_int(args[1]))

    def _decr(self, args) -> RespValue:
        self._arity(args, 1, "decr")
        return self._incr_by(bytes(args[0]), -1)

    def _decrby(self, args) -> RespValue:
        self._arity(args, 2, "decrby")
        return self._incr_by(bytes(args[0]), -self._as_int(args[1]))

    def _mset(self, args) -> RespValue:
        if not args or len(args) % 2:
            raise RespError(
                "ERR wrong number of arguments for 'mset' command"
            )
        for index in range(0, len(args), 2):
            self.engine.set(bytes(args[index]), bytes(args[index + 1]))
        return OK

    def _mget(self, args) -> RespValue:
        if not args:
            raise RespError(
                "ERR wrong number of arguments for 'mget' command"
            )
        return [self.engine.get(bytes(key)) for key in args]

    def _type(self, args) -> RespValue:
        self._arity(args, 1, "type")
        if self.engine.exists(bytes(args[0])):
            return resp.SimpleString(b"string")
        return resp.SimpleString(b"none")

    def _expire(self, args) -> RespValue:
        self._arity(args, 2, "expire")
        seconds = self._as_int(args[1])
        deadline = self.engine.clock.now + seconds * SEC
        return int(self.engine.expire_at(bytes(args[0]), deadline))

    def _pexpire(self, args) -> RespValue:
        self._arity(args, 2, "pexpire")
        millis = self._as_int(args[1])
        deadline = self.engine.clock.now + millis * MSEC
        return int(self.engine.expire_at(bytes(args[0]), deadline))

    def _ttl(self, args) -> RespValue:
        self._arity(args, 1, "ttl")
        remaining = self.engine.ttl_ns(bytes(args[0]))
        if remaining < 0:
            return remaining
        # Redis rounds the remaining TTL *up* to whole seconds.
        return -(-remaining // SEC)

    def _pttl(self, args) -> RespValue:
        self._arity(args, 1, "pttl")
        remaining = self.engine.ttl_ns(bytes(args[0]))
        if remaining < 0:
            return remaining
        return -(-remaining // MSEC)

    def _persist(self, args) -> RespValue:
        self._arity(args, 1, "persist")
        return int(self.engine.persist(bytes(args[0])))

    def _dump(self, args) -> RespValue:
        """DUMP key — serialize one value via the RDB encode path."""
        self._arity(args, 1, "dump")
        value = self.engine.get(bytes(args[0]))
        if value is None:
            return None
        return rdb.dump([(bytes(args[0]), value)]).payload

    def _restore(self, args) -> RespValue:
        """RESTORE key ttl-ms payload [REPLACE] — the MIGRATE landing."""
        if len(args) not in (3, 4):
            raise RespError(
                "ERR wrong number of arguments for 'restore' command"
            )
        replace = False
        if len(args) == 4:
            if bytes(args[3]).upper() != b"REPLACE":
                raise RespError("ERR syntax error")
            replace = True
        key = bytes(args[0])
        ttl_ms = self._as_int(args[1], what="ttl")
        if ttl_ms < 0:
            raise RespError("ERR Invalid TTL value, must be >= 0")
        if not replace and self.engine.exists(key):
            raise RespError("BUSYKEY Target key name already exists.")
        try:
            entries = list(rdb.load(rdb.SnapshotFile(payload=bytes(args[2]))))
        except CorruptSnapshotError:
            raise RespError(
                "ERR Bad data format: DUMP payload did not verify"
            ) from None
        if len(entries) != 1:
            raise RespError(
                "ERR Bad data format: expected exactly one entry"
            )
        self.engine.set(key, entries[0][1])
        if ttl_ms:
            self.engine.expire_at(key, self.engine.clock.now + ttl_ms * MSEC)
        return OK

    def _del(self, args) -> RespValue:
        if not args:
            raise RespError("ERR wrong number of arguments for 'del' command")
        return sum(1 for key in args if self.engine.delete(bytes(key)))

    def _exists(self, args) -> RespValue:
        if not args:
            raise RespError(
                "ERR wrong number of arguments for 'exists' command"
            )
        return sum(1 for key in args if self.engine.exists(bytes(key)))

    def _dbsize(self, args) -> RespValue:
        self._arity(args, 0, "dbsize")
        return len(self.engine.store)

    def _flushall(self, args) -> RespValue:
        self._arity(args, 0, "flushall")
        for key in list(self.engine.store.keys()):
            self.engine.delete(key)
        return OK

    def _bgsave(self, args) -> RespValue:
        self._arity(args, 0, "bgsave")
        try:
            self.engine.bgsave()
        except SnapshotInProgressError:
            raise RespError("ERR Background save already in progress")
        except ForkError as exc:
            raise RespError(f"ERR Background save failed: {exc}")
        return resp.SimpleString(b"Background saving started")

    def _bgrewriteaof(self, args) -> RespValue:
        self._arity(args, 0, "bgrewriteaof")
        if self.engine.aof is None:
            raise RespError("ERR AOF is not enabled on this instance")
        try:
            self.engine.bgrewriteaof()
        except SnapshotInProgressError:
            raise RespError("ERR Background job already in progress")
        except ForkError as exc:
            raise RespError(f"ERR Background AOF rewrite failed: {exc}")
        return resp.SimpleString(b"Background append only file "
                                 b"rewriting started")

    def _lastsave(self, args) -> RespValue:
        self._arity(args, 0, "lastsave")
        return self._last_save_ns // SEC

    def _latency(self, args) -> RespValue:
        """LATENCY HISTORY|LATEST|RESET|DOCTOR (Redis's framework)."""
        if not args:
            raise RespError(
                "ERR wrong number of arguments for 'latency' command"
            )
        sub = bytes(args[0]).upper()
        if sub == b"HISTORY":
            self._arity(args, 2, "latency history")
            samples = self.latency.history(bytes(args[1]).decode())
            # Redis returns integer *milliseconds* per sample.
            return [
                [s.at_ns // SEC, int(s.duration_ms)]
                for s in samples
            ]
        if sub == b"LATEST":
            rows = []
            for event, sample in sorted(self.latency.latest().items()):
                worst = self.latency.worst(event)
                rows.append(
                    [
                        event.encode(),
                        sample.at_ns // SEC,
                        int(sample.duration_ms),
                        int(worst),
                    ]
                )
            return rows
        if sub == b"RESET":
            events = [bytes(a).decode() for a in args[1:]]
            return self.latency.reset(*events)
        if sub == b"DOCTOR":
            return self.latency.doctor().encode()
        raise RespError(f"ERR unknown LATENCY subcommand {sub.decode()!r}")

    def _cluster(self, args) -> RespValue:
        """CLUSTER without cluster support: INFO answers, every other
        subcommand is refused, as a non-cluster Redis does."""
        if args and bytes(args[0]).upper() == b"INFO":
            return (b"cluster_enabled:0\r\ncluster_state:ok\r\n"
                    b"cluster_known_nodes:1\r\ncluster_size:0\r\n")
        raise RespError("ERR This instance has cluster support disabled")

    def _info(self, args) -> RespValue:
        job = self.engine.active_job
        fields = {
            "fork_engine": self.engine.fork_engine.name,
            "db_keys": len(self.engine.store),
            "dirty_since_save": self.engine.store.dirty_since_save,
            "rdb_bgsave_in_progress": int(isinstance(job, SnapshotJob)),
            "rdb_last_bgsave_status": self._last_bgsave_status,
            "aof_rewrite_in_progress": int(isinstance(job, RewriteJob)),
            "completed_snapshots": self.completed_snapshots,
            "failed_background_jobs": self._failed_jobs,
            "rss_pages": self.engine.process.mm.rss,
        }
        if self.info_extra is not None:
            fields.update(self.info_extra())
        text = "".join(f"{k}:{v}\r\n" for k, v in fields.items())
        return text.encode()
