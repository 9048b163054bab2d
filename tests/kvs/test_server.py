"""Tests for the RESP command server and the save-point policy."""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.async_fork import AsyncFork
from repro.kvs import resp
from repro.kvs.engine import KvEngine
from repro.kvs.resp import RespError, SimpleString, encode_command
from repro.kvs.server import DEFAULT_SAVE_POINTS, CommandServer, SavePoint
from repro.units import MSEC, SEC
from tests.faults.frame_faults import pte_table_failures
from tests.kvs.test_server_cron import info_fields


@pytest.fixture
def server() -> CommandServer:
    engine = KvEngine(fork_engine=AsyncFork())
    return CommandServer(engine)


def send(server: CommandServer, *args):
    """Send one command, parse the single reply value back."""
    reply_bytes = server.feed(encode_command(*args))
    parser = resp.Parser()
    parser.feed(reply_bytes)
    values = list(parser)
    assert len(values) == 1
    return values[0]


class TestCommands:
    def test_ping(self, server):
        assert send(server, "PING") == b"PONG"

    def test_ping_with_payload(self, server):
        assert send(server, "PING", "hello") == b"hello"

    def test_echo(self, server):
        assert send(server, "ECHO", "x") == b"x"

    def test_set_get(self, server):
        assert send(server, "SET", "k", "v") == b"OK"
        assert send(server, "GET", "k") == b"v"

    def test_get_missing_is_null(self, server):
        assert send(server, "GET", "nope") is None

    def test_del_multiple(self, server):
        send(server, "SET", "a", "1")
        send(server, "SET", "b", "2")
        assert send(server, "DEL", "a", "b", "ghost") == 2

    def test_exists(self, server):
        send(server, "SET", "a", "1")
        assert send(server, "EXISTS", "a", "a", "b") == 2

    def test_dbsize(self, server):
        send(server, "SET", "a", "1")
        assert send(server, "DBSIZE") == 1

    def test_flushall(self, server):
        send(server, "SET", "a", "1")
        assert send(server, "FLUSHALL") == b"OK"
        assert send(server, "DBSIZE") == 0

    def test_unknown_command(self, server):
        reply = send(server, "HGETALL", "x")
        assert isinstance(reply, RespError)
        assert "unknown command" in reply.message

    def test_wrong_arity(self, server):
        reply = send(server, "SET", "only-key")
        assert isinstance(reply, RespError)
        assert "wrong number of arguments" in reply.message

    def test_case_insensitive(self, server):
        assert send(server, "set", "k", "v") == b"OK"

    def test_info_fields(self, server):
        send(server, "SET", "k", "v")
        info = send(server, "INFO")
        assert b"fork_engine:async" in info
        assert b"db_keys:1" in info

    def test_inline_commands_work(self, server):
        reply = server.feed(b"PING\r\n")
        assert reply == b"+PONG\r\n"

    def test_pipelined_commands(self, server):
        payload = encode_command("SET", "a", "1") + encode_command("GET", "a")
        replies = server.feed(payload)
        parser = resp.Parser()
        parser.feed(replies)
        assert list(parser) == [SimpleString(b"OK"), b"1"]

    @pytest.mark.parametrize("payload", [b"SRDB", b"SRDB\x01", b"SRDB\0\0\0"])
    def test_restore_of_a_short_payload_replies_an_error(
        self, server, payload
    ):
        """A payload that ends inside the count header is bad data,
        not a crash of the command."""
        reply = server.call([b"RESTORE", b"k", b"0", payload])
        assert isinstance(reply, RespError)
        assert reply.message == (
            "ERR Bad data format: DUMP payload did not verify"
        )
        assert send(server, "EXISTS", "k") == 0
        assert send(server, "PING") == b"PONG"


class TestBackgroundJobs:
    def test_bgsave_via_protocol(self, server):
        reaped = []
        server.on_job_done = lambda job, error: reaped.append(job.report)
        send(server, "SET", "k", "v")
        reply = send(server, "BGSAVE")
        assert b"Background saving started" in bytes(reply)
        send(server, "SET", "k", "mutated")
        # Cron may already have reaped the job cooperatively.
        report = server.finish_background_job() or reaped[0]
        from repro.kvs import rdb

        assert dict(rdb.load(report.file)) == {b"k": b"v"}

    def test_double_bgsave_rejected(self):
        # Enough data that the Async-fork child copy spans several PMD
        # steps — the second BGSAVE must arrive while the first runs.
        engine = KvEngine(fork_engine=AsyncFork())
        server = CommandServer(engine)
        for i in range(300):
            send(server, "SET", f"k{i}", "x" * 16384)
        send(server, "BGSAVE")
        reply = send(server, "BGSAVE")
        assert isinstance(reply, RespError)
        server.finish_background_job()

    def test_commands_step_the_child_copy(self, server):
        for i in range(20):
            send(server, "SET", f"k{i}", "x" * 600)
        send(server, "BGSAVE")
        # Each subsequent command advances the Async-fork child; once
        # the copy drains, cron completes the job on its own.
        for _ in range(30):
            send(server, "PING")
        job = server.engine.active_job
        if job is None:
            assert server.completed_snapshots == 1
        else:
            session = job.result.session
            assert session.done or session.stats.child_tables_copied > 0
            server.finish_background_job()

    def test_bgrewriteaof_requires_aof(self, server):
        reply = send(server, "BGREWRITEAOF")
        assert isinstance(reply, RespError)

    def test_bgrewriteaof_with_aof(self):
        engine = KvEngine(
            fork_engine=AsyncFork(),
            config=EngineConfig(aof_enabled=True),
        )
        server = CommandServer(engine)
        for i in range(5):
            send(server, "SET", "k", str(i))
        reply = send(server, "BGREWRITEAOF")
        assert b"rewriting started" in bytes(reply)
        log = server.finish_background_job()
        assert len(log) < 5 + 1


class TestForkCallFailure:
    """A fork call that rolls back (§4.4) is an error reply, counted as a
    failed job, as serverCron's save-point branch already counts it."""

    def _server(self) -> CommandServer:
        engine = KvEngine(
            fork_engine=AsyncFork(), config=EngineConfig(aof_enabled=True)
        )
        server = CommandServer(engine, save_points=())
        send(server, "SET", "k", "v")
        pte_table_failures(engine.frames)
        return server

    def test_bgsave_replies_an_error(self):
        server = self._server()
        reply = server.call([b"BGSAVE"])
        assert isinstance(reply, RespError)
        assert reply.message.startswith("ERR Background save failed")
        assert "purpose=pgd" in reply.message
        info = info_fields(server)
        assert info["rdb_last_bgsave_status"] == "err"
        assert info["failed_background_jobs"] == "1"
        assert server.engine.active_job is None

    def test_bgrewriteaof_replies_an_error_and_closes_its_buffer(self):
        server = self._server()
        reply = server.call([b"BGREWRITEAOF"])
        assert isinstance(reply, RespError)
        assert info_fields(server)["failed_background_jobs"] == "1"
        assert not server.engine.aof.rewriting
        server.engine.frames.attach_fault_plan(None)
        assert b"rewriting started" in bytes(server.call([b"BGREWRITEAOF"]))
        server.finish_background_job()


class TestJobStartedOutsideTheServer:
    """The engine holds the one record of the in-flight job, so the
    server sees a BGSAVE it did not start (here a direct
    ``engine.bgsave()``) in its handlers, ``INFO``, ``LATENCY`` and
    serverCron."""

    @pytest.fixture
    def busy(self):
        engine = KvEngine(fork_engine=AsyncFork())
        server = CommandServer(engine, save_points=())
        # Enough data that the child copy outlives one cron step.
        for i in range(300):
            engine.set(f"k{i}", b"x" * 16384)
        return server, engine.bgsave()

    @pytest.mark.parametrize("via", ["call", "feed"])
    def test_bgsave_replies_in_progress(self, busy, via):
        server, _ = busy
        if via == "call":
            reply = server.call([b"BGSAVE"])
        else:
            reply = send(server, "BGSAVE")
        assert isinstance(reply, RespError)
        assert reply.message == "ERR Background save already in progress"

    def test_info_reports_the_bgsave(self, busy):
        server, _ = busy
        assert b"rdb_bgsave_in_progress:1\r\n" in send(server, "INFO")

    def test_latency_history_holds_the_fork(self, busy):
        server, job = busy
        assert len(send(server, "LATENCY", "HISTORY", "fork")) == 1
        (sample,) = server.latency.history("fork")
        assert sample.duration_ms == job.result.stats.parent_call_ns / MSEC

    def test_cron_reaps_it(self, busy):
        server, job = busy
        retired = []
        server.on_job_done = lambda *outcome: retired.append(outcome)
        for _ in range(10):
            send(server, "PING")
        assert server.engine.active_job is None
        assert job.done
        assert server.completed_snapshots == 1
        assert retired == [(job, None)]
        assert job.report is not None


class TestSavePolicy:
    def test_default_rules_match_redis_conf(self):
        assert SavePoint(60, 10_000) in DEFAULT_SAVE_POINTS

    def test_savepoint_due(self):
        rule = SavePoint(60, 10)
        assert rule.due(61 * SEC, 10)
        assert not rule.due(59 * SEC, 1000)
        assert not rule.due(3600 * SEC, 9)

    def test_policy_triggers_bgsave(self):
        engine = KvEngine(fork_engine=AsyncFork())
        server = CommandServer(
            engine, save_points=(SavePoint(1, 5),)
        )
        for i in range(6):
            send(server, "SET", f"k{i}", "v")
        # Less than a second of simulated time has passed: not yet due.
        assert server.engine.active_job is None
        engine.clock.advance(2 * SEC)
        send(server, "PING")  # serverCron runs on command handling
        assert server.engine.active_job is not None
        report = server.finish_background_job()
        assert report.file.entry_count == 6
        assert engine.store.dirty_since_save == 0

    def test_lastsave_updates(self):
        engine = KvEngine(fork_engine=AsyncFork())
        server = CommandServer(engine, save_points=())
        t0 = send(server, "LASTSAVE")
        engine.clock.advance(5 * SEC)
        send(server, "SET", "k", "v")
        send(server, "BGSAVE")
        server.finish_background_job()
        assert send(server, "LASTSAVE") >= t0 + 5
