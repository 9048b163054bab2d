"""NetSession's dispatch contract, without a socket.

A session checks and names each request, answers the connection-scoped
commands itself and hands everything else to its backend.  These tests
pin what a client sees at that seam: the protocol error texts, case
folding, the unknown-command reply, the standalone ``CLUSTER`` answers,
HELLO's reported mode, and which commands run serverCron (and so step
an in-flight BGSAVE child).
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimCluster
from repro.core.async_fork import AsyncFork
from repro.kvs.engine import KvEngine
from repro.kvs.resp import RespError, SimpleString
from repro.kvs.server import CommandServer
from repro.net.core import NetSession
from repro.proxy import ClusterProxy, ProxyFrontend

NOT_AN_ARRAY = "ERR protocol: expected a command array"
NAME_NOT_A_STRING = "ERR protocol: command name must be a string"
CLUSTER_DISABLED = "ERR This instance has cluster support disabled"


def make_session(keys: int = 0) -> NetSession:
    engine = KvEngine(fork_engine=AsyncFork(), name="session")
    for i in range(keys):
        engine.set(b"key:%06d" % i, bytes(256))
    return NetSession(CommandServer(engine, save_points=()), conn_id=3)


def error_text(reply) -> str:
    """The message of an error reply (fails on any other reply)."""
    assert isinstance(reply, RespError), reply
    return reply.message


class TestMalformed:
    @pytest.mark.parametrize("command", [b"PING", 7, None, {}])
    def test_non_array(self, command):
        assert error_text(make_session().dispatch(command)) == NOT_AN_ARRAY

    def test_empty_array(self):
        assert error_text(make_session().dispatch([])) == NOT_AN_ARRAY

    @pytest.mark.parametrize("first", [7, None, 1.5, [b"GET"]])
    def test_non_bytes_name(self, first):
        reply = make_session().dispatch([first, b"k"])
        assert error_text(reply) == NAME_NOT_A_STRING

    def test_bytearray_name_is_a_name(self):
        reply = make_session().dispatch([bytearray(b"ping")])
        assert reply == SimpleString(b"PONG")


class TestNames:
    def test_lower_case_backend_commands(self):
        session = make_session()
        assert session.dispatch([b"set", b"k", b"v"]) == SimpleString(b"OK")
        assert session.dispatch([b"gEt", b"k"]) == b"v"
        assert session.dispatch([b"dbsize"]) == 1

    def test_lower_case_connection_commands(self):
        session = make_session()
        assert session.dispatch([b"hello", b"3"])[b"proto"] == 3
        assert session.proto == 3
        assert session.dispatch([b"client", b"setname", b"me"]) == (
            SimpleString(b"OK")
        )
        assert session.dispatch([b"CLIENT", b"GETNAME"]) == b"me"

    def test_unknown_command(self):
        session = make_session()
        reply = session.dispatch([b"nosuch", b"x"])
        assert error_text(reply) == "ERR unknown command 'NOSUCH'"
        reply = session.dispatch([b"\xff"])
        assert error_text(reply) == "ERR unknown command '\\xff'"

    def test_commands_counts_every_dispatch(self):
        session = make_session()
        session.dispatch([b"PING"])
        session.dispatch([b"HELLO"])
        session.dispatch([])
        assert session.commands == 3


class TestStandaloneCluster:
    def test_cluster_info(self):
        reply = make_session().dispatch([b"cluster", b"info"])
        assert reply == (
            b"cluster_enabled:0\r\ncluster_state:ok\r\n"
            b"cluster_known_nodes:1\r\ncluster_size:0\r\n"
        )

    @pytest.mark.parametrize(
        "args", [[], [b"SLOTS"], [b"keyslot", b"k"], [b"MYID"]]
    )
    def test_other_subcommands_are_disabled(self, args):
        reply = make_session().dispatch([b"CLUSTER", *args])
        assert error_text(reply) == CLUSTER_DISABLED


class TestHelloMode:
    def test_standalone(self):
        hello = make_session().dispatch([b"HELLO", b"3"])
        assert hello[b"mode"] == b"standalone"
        assert hello[b"id"] == 3

    def test_cluster_behind_the_proxy(self):
        front = ProxyFrontend(
            ClusterProxy(SimCluster(n_shards=2, method="default"))
        )
        hello = NetSession(front).dispatch([b"HELLO"])
        assert hello[b"mode"] == b"cluster"
        assert hello[b"proto"] == 2


class TestServerCron:
    """Connection-scoped commands never reach serverCron; backend
    commands step the in-flight child once each."""

    def test_connection_commands_do_not_step_the_child(self):
        session = make_session(keys=400)
        assert session.dispatch([b"BGSAVE"]) == SimpleString(
            b"Background saving started"
        )
        job = session.backend.engine.active_job
        assert job is not None
        steps = []
        step = job.step_child

        def counted():
            steps.append(1)
            return step()

        job.step_child = counted

        assert session.dispatch([b"HELLO", b"3"])[b"proto"] == 3
        assert session.dispatch([b"CLIENT", b"SETNAME", b"c"]) == (
            SimpleString(b"OK")
        )
        assert session.dispatch([b"CONFIG", b"GET", b"save"]) == {
            b"save": b""
        }
        assert session.dispatch([b"SELECT", b"0"]) == SimpleString(b"OK")
        assert error_text(session.dispatch([])) == NOT_AN_ARRAY
        assert steps == []
        assert session.backend.engine.active_job is job
        assert session.dispatch([b"GET", b"key:000001"]) == bytes(256)
        assert steps == [1]
        reply = session.dispatch([b"NOSUCH"])
        assert error_text(reply) == "ERR unknown command 'NOSUCH'"
        assert steps == [1, 1]
