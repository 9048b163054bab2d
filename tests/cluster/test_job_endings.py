"""One record of how each background job ended, whoever drove it.

The engine announces every job end once; the server's INFO fields, the
supervisor's state machine and the shard's snapshot accounting all take
it from there.  Each case here ends a real job through a different
driver and checks that every record agrees.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimCluster
from repro.cluster.shard import ClusterShard
from repro.faults import (
    SITE_CHILD_COPY,
    SITE_DISK_WRITE,
    SITE_FRAME_ALLOC,
    FaultPlan,
    FaultSpec,
)
from repro.kvs.server import SavePoint


def served_shard(keys: int = 64, save_points=()) -> ClusterShard:
    cluster = SimCluster(n_shards=1, method="async", save_points=save_points)
    shard = cluster.shards[0]
    for i in range(keys):
        shard.engine.set(b"k:%04d" % i, b"v" * 4096)
    return shard


def arm(shard: ClusterShard, *specs: FaultSpec) -> None:
    plan = FaultPlan(seed=0, specs=specs)
    shard.engine.attach_fault_plan(plan)
    shard.supervisor.plan = plan


def info(shard: ClusterShard) -> dict:
    text = bytes(shard.server.call([b"INFO"])).decode()
    return dict(line.split(":", 1) for line in text.split("\r\n") if line)


def serve_until_idle(shard: ClusterShard, limit: int = 10_000) -> int:
    """Serve PINGs until no job is in flight; returns how many."""
    for served in range(1, limit + 1):
        shard.server.call([b"PING"])
        if not shard.snapshotting:
            return served
    raise AssertionError(f"job still in flight after {limit} commands")


#: Fails the fork call itself on every page-table allocation (§4.4 case
#: 1): the parent rolls back and no child is left.
TABLE_OOM = FaultSpec(
    site=SITE_FRAME_ALLOC,
    kind="oom",
    count=None,
    match=lambda d: d["purpose"].endswith("-table"),
)


@pytest.mark.parametrize("path", ["inline", "served"])
def test_disk_failure_is_named_the_same_on_both_paths(path):
    shard = served_shard()
    arm(shard, FaultSpec(site=SITE_DISK_WRITE, kind="io-error", count=1))
    if path == "inline":
        assert shard.supervisor.save() is not None
    else:
        assert shard.begin_snapshot()
        serve_until_idle(shard)
    assert shard.supervisor.counters.job_failures == {"disk-write": 1}
    assert info(shard)["failed_background_jobs"] == "1"


@pytest.mark.parametrize("starter", ["client", "save-point", "coordinator"])
def test_every_rolled_back_fork_counts_once_everywhere(starter):
    save_points = (SavePoint(0, 1),) if starter == "save-point" else ()
    shard = served_shard(save_points=save_points)
    arm(shard, TABLE_OOM)
    if starter == "client":
        reply = shard.server.call([b"BGSAVE"])
        assert "Background save failed" in str(reply)
        attempts = 1
    elif starter == "save-point":
        attempts = 1  # INFO's own cron tick tries the due save once
    else:
        assert not shard.begin_snapshot()
        attempts = shard.supervisor.policy.max_attempts
    fields = info(shard)
    assert fields["failed_background_jobs"] == str(attempts)
    assert fields["rdb_last_bgsave_status"] == "err"
    assert shard.supervisor.counters.job_failures == {
        "parent-copy": attempts
    }
    assert shard.supervisor.consecutive_rollbacks == attempts


def test_hung_child_on_a_served_shard_is_killed_by_the_watchdog():
    shard = served_shard()
    arm(shard, FaultSpec(
        site=SITE_CHILD_COPY, kind="hang", count=1, magnitude=10**6
    ))
    assert shard.begin_snapshot()
    served = serve_until_idle(shard)
    # The child steps once per served command; the step after the
    # budget kills it.
    assert served == shard.engine.watchdog_steps + 2
    counters = shard.supervisor.counters
    assert counters.watchdog_kills == 1
    assert counters.job_failures == {"watchdog-timeout": 1}
    assert shard.snapshots_failed == 1
    assert info(shard)["rdb_last_bgsave_status"] == "err"
    # The slot is free: the next BGSAVE starts and completes.
    reply = shard.server.call([b"BGSAVE"])
    assert reply == b"Background saving started"
    serve_until_idle(shard)
    assert shard.snapshots_completed == 1
    assert info(shard)["rdb_last_bgsave_status"] == "ok"
