"""Per-layer wall-clock spans, recorded from outside the program.

The benchmark never edits ``src/``.  Instead :func:`install` replaces
each layer's public functions with a timing wrapper, wherever a caller
looks them up: on the defining class or module, and on every ``repro``
module that imported the function by name (``repro.net.app`` binds
``encode``, ``repro.cluster.client`` binds ``encode_command``).

Every wrapped call opens a span.  A span's *self time* is its duration
minus the union of its child spans, so a layer's self time is the time
spent in that layer's own code.  A call with the same layer and name as
the open span (a subclass ``handle`` calling ``super().handle``) folds
into that span instead of opening a nested one.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Layer names, outermost first.  Every per-layer metric is keyed by one.
LAYERS = (
    "codec", "session", "server", "engine", "store", "mm",
    "fork", "rdb", "bridge", "route", "coord", "solver",
)


#: Every per-layer metric the traced run prints, with its unit.  Metrics
#: that do not apply to a workload (``rdb.*`` without snapshots, the
#: load generator's numbers on the sim workloads) are reported as 0.
PER_LAYER_UNITS = {
    "codec.us_per_op": "us",
    "codec.bytes_per_op": "bytes",
    "session.us_per_op": "us",
    "server.us_per_op": "us",
    "server.cpu_us_per_op": "us",
    "loop.us_per_op": "us",
    "engine.us_per_op": "us",
    "engine.finish_ms": "ms",
    "store.us_per_op": "us",
    "mm.read_calls_per_op": "count",
    "mm.read_us_per_call": "us",
    "mm.write_calls_per_op": "count",
    "mm.write_us_per_call": "us",
    "mm.faults_per_op": "count",
    "mm.fault_us_per_call": "us",
    "mm.setup_faults": "count",
    "fork.call_ms": "ms",
    "fork.child_step_ms": "ms",
    "fork.tables_copied": "count",
    "fork.proactive_syncs": "count",
    "fork.table_faults": "count",
    "rdb.dump_ms": "ms",
    "rdb.read_calls_per_snapshot": "count",
    "rdb.bytes_per_snapshot": "bytes",
    "rdb.dump_share": "frac",
    "bridge.stalls": "count",
    "bridge.stall_ms_per_snapshot": "ms",
    "route.us_per_op": "us",
    "route.redirects": "count",
    "coord.us_per_op": "us",
    "solver.us_per_query": "us",
    **{f"{layer}.self_share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
    "client.cpu_util": "frac",
    "host.steal_frac": "frac",
}


def covered_ns(start: int, end: int, children) -> int:
    """Length of the union of ``children`` intervals clipped to [start, end)."""
    total = 0
    run_start = run_end = None
    for s, e in sorted(children):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        elif e > run_end:
            run_end = e
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time_ns(start: int, end: int, children) -> int:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered_ns(start, end, children)


class Recorder:
    """Aggregates spans per ``(layer, what)`` key, plus work counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list] = []
        #: Open frames per layer (``rdb`` open => mm reads belong to it).
        self.active: collections.Counter = collections.Counter()
        self.bridges: list = []
        self.reset()

    def reset(self) -> None:
        """Start a new measurement window; spans already open are dropped."""
        self.epoch_ns = self.clock()
        #: key -> [calls, inclusive ns, self ns]
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.counters: collections.Counter = collections.Counter()
        self.bridge_base = [_bridge_totals(b) for b in self.bridges]

    def close(self, frame: list, end: int) -> None:
        key, start, children = frame
        if self.stack:
            self.stack[-1][2].append((start, end))
        if start < self.epoch_ns:
            return
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0, 0]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_time_ns(start, end, children)

    def bridge_totals(self) -> tuple[int, int]:
        """(stalls, stall wall ns) since :meth:`reset`, from the bridges'
        own ``ClockBridge.metrics`` registries."""
        stalls = wall = 0
        for bridge, (s0, w0) in zip(self.bridges, self.bridge_base):
            s, w = _bridge_totals(bridge)
            stalls += s - s0
            wall += w - w0
        return stalls, wall

    def snapshot(self) -> dict:
        """Everything :func:`layer_metrics` needs, JSON-serialisable."""
        stalls, stall_ns = self.bridge_totals()
        return {
            "stats": [[k[0], k[1], *v] for k, v in self.stats.items()],
            "counters": dict(self.counters),
            "bridge_stalls": stalls,
            "bridge_stall_ns": stall_ns,
            "window_ns": self.clock() - self.epoch_ns,
        }


def _bridge_totals(bridge) -> tuple[int, int]:
    return (
        bridge.metrics.get("stalls").value,
        bridge.metrics.get("stall_wall_ns").value,
    )


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------


def _count_result_len(name):
    def post(rec, args, result):
        rec.counters[name] += len(result)
    return post


def _count_fed(rec, args):
    rec.counters["codec.bytes"] += len(args[1])


def _read_pre(rec, args):
    if rec.active["rdb"]:
        rec.counters["rdb.read_calls"] += 1


def _dump_post(rec, args, result):
    rec.counters["rdb.dumps"] += 1
    rec.counters["rdb.bytes"] += result.size


def _finish_post(rec, args, result):
    rec.counters["engine.finishes"] += 1
    rec.counters["fork.tables_copied"] += result.child_tables_copied
    rec.counters["fork.proactive_syncs"] += result.proactive_syncs
    rec.counters["fork.table_faults"] += result.table_faults


def _execute_post(rec, args, result):
    rec.counters["route.redirects"] += result.redirects


def _stall_pre(rec, args):
    # First sight of a bridge: its totals so far are the baseline.
    if args[0] not in rec.bridges:
        rec.bridges.append(args[0])
        rec.bridge_base.append(_bridge_totals(args[0]))


@dataclass(frozen=True)
class Target:
    """One function to time: ``module:qualname`` in ``layer`` as ``what``."""

    module: str
    qualname: str
    layer: str
    what: str
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


TARGETS = (
    Target("repro.net.protocol", "encode", "codec", "encode",
           post=_count_result_len("codec.bytes")),
    Target("repro.net.protocol", "StreamParser.feed", "codec", "feed",
           pre=_count_fed),
    Target("repro.net.protocol", "StreamParser.parse_one", "codec", "parse"),
    Target("repro.kvs.resp", "encode", "codec", "encode",
           post=_count_result_len("codec.bytes")),
    Target("repro.kvs.resp", "encode_command", "codec", "encode_command",
           post=_count_result_len("codec.bytes")),
    Target("repro.kvs.resp", "Parser.feed", "codec", "feed",
           pre=_count_fed),
    Target("repro.kvs.resp", "Parser.parse_one", "codec", "parse"),
    Target("repro.net.core", "NetSession.dispatch", "session", "dispatch"),
    Target("repro.kvs.server", "CommandServer.handle", "server", "handle"),
    Target("repro.kvs.server", "CommandServer.feed", "server", "feed"),
    Target("repro.cluster.shard", "ShardedCommandServer.handle",
           "server", "handle"),
    Target("repro.kvs.engine", "KvEngine.set", "engine", "set"),
    Target("repro.kvs.engine", "KvEngine.get", "engine", "get"),
    Target("repro.kvs.engine", "KvEngine.bgsave", "engine", "bgsave"),
    Target("repro.kvs.engine", "SnapshotJob.finish", "engine", "finish",
           post=_finish_post),
    Target("repro.kvs.store", "KvStore.set", "store", "set"),
    Target("repro.kvs.store", "KvStore.get", "store", "get"),
    Target("repro.kvs.store", "KvStore.table_snapshot", "store",
           "table_snapshot"),
    Target("repro.mem.address_space", "AddressSpace.read_memory",
           "mm", "read", pre=_read_pre),
    Target("repro.mem.address_space", "AddressSpace.write_memory",
           "mm", "write"),
    Target("repro.mem.address_space", "AddressSpace.handle_fault",
           "mm", "fault"),
    Target("repro.kernel.forks.default", "DefaultFork.fork", "fork", "call"),
    Target("repro.kernel.forks.odf", "OnDemandFork.fork", "fork", "call"),
    Target("repro.core.async_fork", "AsyncFork.fork", "fork", "call"),
    Target("repro.core.async_fork", "AsyncForkSession.child_step",
           "fork", "child_step"),
    Target("repro.kvs.rdb", "dump", "rdb", "dump", post=_dump_post),
    Target("repro.net.bridge", "ClockBridge.stall", "bridge", "stall",
           pre=_stall_pre),
    Target("repro.cluster.client", "ClusterClient.execute", "route",
           "execute", post=_execute_post),
    Target("repro.cluster.coordinator", "SnapshotCoordinator.tick",
           "coord", "tick"),
    Target("repro.workload.cluster", "_solve_timeline", "solver", "cluster"),
)


def _wrap(fn: Callable, target: Target, rec: Recorder) -> Callable:
    key = (target.layer, target.what)
    layer, pre, post = target.layer, target.pre, target.post

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        if stack and stack[-1][0] == key:
            return fn(*args, **kwargs)
        if pre is not None:
            pre(rec, args)
        frame = [key, rec.clock(), []]
        stack.append(frame)
        rec.active[layer] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            end = rec.clock()
            stack.pop()
            rec.active[layer] -= 1
            rec.close(frame, end)
        if post is not None:
            post(rec, args, result)
        return result

    return wrapper


def install(rec: Recorder, targets=TARGETS) -> Callable[[], None]:
    """Wrap every target for ``rec``; returns a function that unwraps."""
    undo: list[tuple[object, str, object]] = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner = module
        *path, name = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name]
        wrapped = _wrap(original, target, rec)
        undo.append((owner, name, original))
        setattr(owner, name, wrapped)
        if path:
            continue
        # Module-level functions: re-point callers that bound the name.
        for mod_name, mod in list(sys.modules.items()):
            if mod is module or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(snap: dict, ops: int, run_ns: int) -> dict[str, float]:
    """Turn a :meth:`Recorder.snapshot` into the ``<layer>.<what>`` metrics.

    ``ops`` is the workload's operation count in the window (wire
    requests or routed cluster queries);
    ``run_ns`` the wall time the shares are taken of.
    """
    stats = {(lay, w): (c, inc, slf) for lay, w, c, inc, slf in snap["stats"]}
    counters = collections.Counter(snap["counters"])
    ops = max(1, ops)

    def calls(lay, w):
        return stats.get((lay, w), (0, 0, 0))[0]

    def incl(lay, w):
        return stats.get((lay, w), (0, 0, 0))[1]

    def self_layer(lay):
        return sum(v[2] for (l2, _), v in stats.items() if l2 == lay)

    def per(num, den):
        return num / den if den else 0.0

    snapshots = counters["engine.finishes"]
    dumps = counters["rdb.dumps"]
    m: dict[str, float] = {}
    for lay in ("codec", "session", "server", "engine", "store", "route",
                "coord"):
        m[f"{lay}.us_per_op"] = self_layer(lay) / ops / 1e3
    m["codec.bytes_per_op"] = counters["codec.bytes"] / ops
    m["engine.finish_ms"] = per(incl("engine", "finish"), snapshots) / 1e6
    for what, label in (("read", "read_calls"), ("write", "write_calls"),
                        ("fault", "faults")):
        n = calls("mm", what)
        m[f"mm.{label}_per_op"] = n / ops
        m[f"mm.{what}_us_per_call"] = per(incl("mm", what), n) / 1e3
    m["fork.call_ms"] = per(incl("fork", "call"), calls("fork", "call")) / 1e6
    m["fork.child_step_ms"] = per(incl("fork", "child_step"), snapshots) / 1e6
    for name in ("tables_copied", "proactive_syncs", "table_faults"):
        m[f"fork.{name}"] = per(counters[f"fork.{name}"], snapshots)
    m["rdb.dump_ms"] = per(self_layer("rdb"), dumps) / 1e6
    m["rdb.read_calls_per_snapshot"] = per(counters["rdb.read_calls"], dumps)
    m["rdb.bytes_per_snapshot"] = per(counters["rdb.bytes"], dumps)
    # The dump with everything it drives (mm reads and faults).
    m["rdb.dump_share"] = per(incl("rdb", "dump"), run_ns)
    m["bridge.stalls"] = float(snap["bridge_stalls"])
    m["bridge.stall_ms_per_snapshot"] = (
        per(snap["bridge_stall_ns"], snapshots) / 1e6
    )
    m["route.redirects"] = float(counters["route.redirects"])
    m["solver.us_per_query"] = self_layer("solver") / ops / 1e3
    for lay in LAYERS:
        m[f"{lay}.self_share"] = per(self_layer(lay), run_ns)
    return m
