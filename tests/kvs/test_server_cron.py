"""Clock-driven tests for the serverCron background-job lifecycle.

The full story per fork engine: a save point triggers BGSAVE from cron,
subsequent commands cooperatively advance the child copy, and — without
anyone calling ``finish_background_job()`` — cron reaps the finished job
so ``LASTSAVE``, ``INFO`` and the completed-snapshot counter all agree.
"""

from __future__ import annotations

import pytest

from repro.core.async_fork import AsyncFork
from repro.kernel.forks.default import DefaultFork
from repro.kernel.forks.odf import OnDemandFork
from repro.kvs import resp
from repro.kvs.engine import KvEngine
from repro.kvs.resp import encode_command
from repro.kvs.server import CommandServer, SavePoint
from repro.units import SEC, ms

ENGINES = (DefaultFork, OnDemandFork, AsyncFork)


def send(server: CommandServer, *args):
    parser = resp.Parser()
    parser.feed(server.feed(encode_command(*args)))
    values = list(parser)
    assert len(values) == 1
    return values[0]


def info_fields(server: CommandServer) -> dict[str, str]:
    text = send(server, "INFO").decode()
    return dict(
        line.split(":", 1) for line in text.splitlines() if ":" in line
    )


@pytest.fixture(params=ENGINES, ids=lambda cls: cls.name)
def server(request) -> CommandServer:
    engine = KvEngine(fork_engine=request.param())
    return CommandServer(engine, save_points=(SavePoint(1, 5),))


class TestCronLifecycle:
    def _drive_to_completion(self, server: CommandServer, limit: int = 512):
        """PING until cron reaps the active job (bounded)."""
        for _ in range(limit):
            if server.engine.active_job is None:
                return
            send(server, "PING")
        raise AssertionError("cron never completed the background job")

    def test_cron_bgsave_completes_without_manual_finish(self, server):
        engine = server.engine
        reports = []
        server.on_job_done = lambda job, error: reports.append(job.report)
        for i in range(6):
            send(server, "SET", f"k{i}", "v" * 64)
        assert server.engine.active_job is None  # not due yet (elapsed < 1 s)
        engine.clock.advance(2 * SEC)
        send(server, "PING")  # cron fires the save point
        assert server.engine.active_job is not None

        self._drive_to_completion(server)

        fields = info_fields(server)
        assert fields["rdb_bgsave_in_progress"] == "0"
        assert fields["completed_snapshots"] == "1"
        assert fields["rdb_last_bgsave_status"] == "ok"
        (report,) = reports
        assert report.file.entry_count == 6

    def test_lastsave_advances_on_cron_completion(self, server):
        engine = server.engine
        before = send(server, "LASTSAVE")
        for i in range(6):
            send(server, "SET", f"k{i}", "v" * 64)
        engine.clock.advance(5 * SEC)
        send(server, "PING")
        self._drive_to_completion(server)
        assert send(server, "LASTSAVE") >= before + 5

    def test_next_save_point_fires_after_cron_completion(self, server):
        """The regression: a stuck job used to block every later save."""
        engine = server.engine
        for i in range(6):
            send(server, "SET", f"k{i}", "v" * 64)
        engine.clock.advance(2 * SEC)
        send(server, "PING")
        self._drive_to_completion(server)

        # Round two: new writes + elapsed time must trigger a new BGSAVE.
        for i in range(6):
            send(server, "SET", f"fresh{i}", "w" * 64)
        engine.clock.advance(2 * SEC)
        send(server, "PING")
        assert (
            server.engine.active_job is not None
            or server.completed_snapshots == 2
        )
        self._drive_to_completion(server)
        assert server.completed_snapshots == 2

    def test_info_reports_in_progress_during_async_copy(self):
        """While the Async-fork child copy is in flight, INFO sees it.

        (A default/ODF job is reaped by the very next cron tick — its
        child needs no cooperative help — so only Async-fork exposes an
        observable in-progress window.)
        """
        engine = KvEngine(fork_engine=AsyncFork())
        server = CommandServer(engine, save_points=())
        for i in range(300):
            send(server, "SET", f"k{i}", "x" * 16384)
        send(server, "BGSAVE")
        fields = info_fields(server)
        assert fields["rdb_bgsave_in_progress"] == "1"
        self._drive_to_completion(server)
        assert info_fields(server)["rdb_bgsave_in_progress"] == "0"

    def test_manual_bgsave_also_reaped_by_cron(self, server):
        send(server, "SET", "k", "v")
        send(server, "BGSAVE")
        self._drive_to_completion(server)
        assert server.completed_snapshots == 1


class TestDirtyCounterAtForkPoint:
    """server.dirty resets when the BGSAVE *starts*, like Redis."""

    @pytest.mark.parametrize("fork_cls", ENGINES, ids=lambda c: c.name)
    def test_reset_at_fork_not_finish(self, fork_cls):
        engine = KvEngine(fork_engine=fork_cls())
        for i in range(4):
            engine.set(f"k{i}", b"v")
        job = engine.bgsave()
        assert engine.store.dirty_since_save == 0
        # Writes landing during the snapshot window belong to the next
        # save point and must survive the job's completion.
        engine.set("during1", b"x")
        engine.set("during2", b"x")
        job.finish()
        assert engine.store.dirty_since_save == 2

    @pytest.mark.parametrize("fork_cls", ENGINES, ids=lambda c: c.name)
    def test_abort_restores_prefork_count(self, fork_cls):
        engine = KvEngine(fork_engine=fork_cls())
        for i in range(4):
            engine.set(f"k{i}", b"v")
        job = engine.bgsave()
        engine.set("during", b"x")
        job.abort(reason="test-rollback")
        # 4 pre-fork writes restored + 1 during the window.
        assert engine.store.dirty_since_save == 5

    def test_abort_restore_is_idempotent(self):
        engine = KvEngine(fork_engine=DefaultFork())
        engine.set("k", b"v")
        job = engine.bgsave()
        job.abort(reason="test")
        job.abort(reason="test-again")
        assert engine.store.dirty_since_save == 1


class TestLatencyCommandUnits:
    """LATENCY HISTORY/LATEST report integer milliseconds, like Redis."""

    def _server(self) -> CommandServer:
        return CommandServer(
            KvEngine(fork_engine=AsyncFork()), save_points=()
        )

    def test_history_is_integer_milliseconds(self):
        server = self._server()
        server.latency.record("fork", ms(250), at_ns=3 * SEC)
        rows = send(server, "LATENCY", "HISTORY", "fork")
        assert rows == [[3, 250]]

    def test_latest_is_integer_milliseconds(self):
        server = self._server()
        server.latency.record("fork", ms(40), at_ns=SEC)
        server.latency.record("fork", ms(12), at_ns=2 * SEC)
        rows = send(server, "LATENCY", "LATEST")
        assert rows == [[b"fork", 2, 12, 40]]
