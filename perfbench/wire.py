"""The wire workloads: ``repro-serve --engine async`` under seeded load.

The server runs in its own process (``python -m repro.net.cli``, or the
traced launcher ``perfbench/serve.py``), so client and server never
share an interpreter lock.  The load generator is this process: one
thread and two connections.

* ``wire-kv``: 20,000 resident 512 B keys, no snapshots.  A closed loop:
  each connection sends its next request (90% GET) when the last reply
  arrives.
* ``wire-snapshot``: 4,000 resident 1 KiB keys and the default 8 GiB
  fork-cost emulation.  The same closed loop with 80% SET, and every
  ``BGSAVE_EVERY``-th request of connection 0 is a BGSAVE in its stream.
  The Async-fork child copy and the dump run on the serving thread, so
  the requests that queue behind them make the latency tail.

Output checks: each connection owns the keys ``i % 2 == conn`` and
writes values stamped with its own version counter, so every GET reply
is compared with that connection's last write (or the server's
all-zero start-up value).  Every reply that is wrong counts as a failed
operation.  Every BGSAVE must be accepted, and INFO at the end must show
each one completed with status ``ok``.
"""

from __future__ import annotations

import collections
import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Optional

from perfbench import layers
from perfbench.common import (
    ROOT,
    SRC,
    BenchError,
    Result,
    SpeedProbe,
    host_cpu_ticks,
    percentile,
    proc_cpu_s,
    self_cpu_s,
    steal_frac,
    vm_hwm_mb,
)

#: Server spawns per run; ``setup_s`` is their median spawn-to-ready.
SETUP_SPAWNS = 5
WARMUP_S = 1.0
#: A run with no reply for this long is declared hung.
STALL_LIMIT_S = 20.0
READY_LIMIT_S = 60.0
#: wire-snapshot: connection 0's BGSAVE period, in its own requests.
BGSAVE_EVERY = 50


@dataclass(frozen=True)
class WireSpec:
    """The server's data set and the load's traffic mix."""

    keys: int
    value_size: int
    set_frac: float
    #: Connection 0 sends a BGSAVE as every this-many-th request; 0 never.
    bgsave_every: int = 0


SPECS = {
    "wire-kv": WireSpec(keys=20_000, value_size=512, set_frac=0.1),
    "wire-snapshot": WireSpec(keys=4_000, value_size=1024, set_frac=0.8,
                              bgsave_every=BGSAVE_EVERY),
}


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class Server:
    """One ``repro-serve`` child: spawned, awaited, read, shut down."""

    def __init__(self, spec: WireSpec, workdir: str, tag: str,
                 max_runtime_s: float, stats_file: Optional[str] = None):
        self.ready_file = os.path.join(workdir, f"ready-{tag}")
        # repro-serve's default 8 GiB fork-cost emulation stays on.
        args = [
            "--engine", "async", "--port", "0",
            "--keys", str(spec.keys), "--value-size", str(spec.value_size),
            "--ready-file", self.ready_file,
            "--max-runtime", str(max_runtime_s),
        ]
        if stats_file is None:
            cmd = [sys.executable, "-m", "repro.net.cli", *args]
        else:
            launcher = os.path.join(ROOT, "perfbench", "serve.py")
            cmd = [sys.executable, launcher, stats_file, *args]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        # stderr goes to a file: a pipe nobody drains could fill up and
        # block the server mid-run.
        self.stderr_file = os.path.join(workdir, f"stderr-{tag}")
        self.started = time.perf_counter()
        with open(self.stderr_file, "wb") as stderr:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        self.address = self._await_ready()
        self.setup_s = time.perf_counter() - self.started

    def _await_ready(self) -> tuple[str, int]:
        deadline = self.started + READY_LIMIT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                with open(self.stderr_file, errors="replace") as handle:
                    err = handle.read()
                raise BenchError(f"server exited before ready: {err[-800:]}")
            try:
                with open(self.ready_file) as handle:
                    text = handle.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.split()
                return host, int(port)
            time.sleep(0.002)
        raise BenchError("server never wrote its ready file")

    def signal_and_wait(self, signum: int, path: str) -> None:
        """Ask the traced launcher to reset or dump; wait for its file."""
        if os.path.exists(path):
            os.unlink(path)
        self.proc.send_signal(signum)
        deadline = time.perf_counter() + 10.0
        while not os.path.exists(path):
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise BenchError("traced server did not answer a signal")
            time.sleep(0.002)

    def stop(self) -> None:
        """Shut down (SIGTERM exits cleanly), kill if it will not go."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        for path in (self.ready_file, self.stderr_file):
            if os.path.exists(path):
                os.unlink(path)


#: Busy loop at SCHED_IDLE priority; it exits when its parent is gone.
_SPIN = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


class IdleSpinner:
    """Keeps this process's CPU from halting while the wire load runs.

    On a shared VM a halted vCPU waits for the hypervisor to run it again
    whenever a timer or a packet wakes it, and in a closed loop every
    request passes through a moment when client and server both wait on
    the socket.  On a 2-vCPU VM, three wire-kv runs with the spinner
    against three without gave 7,085-7,441 against 6,173-6,603 replies/s
    and a p50 of 0.23-0.25 against 0.28-0.31 ms.  The spinner inherits
    the CPU mask and runs only when nothing else on that CPU is runnable,
    so it takes no time from the client or the server.
    """

    def __enter__(self) -> "IdleSpinner":
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SPIN], stdin=subprocess.DEVNULL
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait(timeout=10)


# ----------------------------------------------------------------------
# RESP on the client side (the program's codec is what is measured, so
# the client keeps its own minimal one)
# ----------------------------------------------------------------------


def encode_command(*parts: bytes) -> bytes:
    out = [b"*%d\r\n" % len(parts)]
    for part in parts:
        out.append(b"$%d\r\n%s\r\n" % (len(part), part))
    return b"".join(out)


def parse_reply(buf: bytearray):
    """Pop one simple reply from ``buf``: ``(type_byte, payload)`` or None.

    Handles the reply types the workloads provoke: ``+`` ``-`` ``:``
    and bulk strings (``$-1`` is a nil, payload ``None``).
    """
    end = buf.find(b"\r\n")
    if end < 0:
        return None
    kind = buf[0:1]
    if kind == b"$":
        length = int(buf[1:end])
        if length < 0:
            del buf[: end + 2]
            return b"$", None
        stop = end + 2 + length
        if len(buf) < stop + 2:
            return None
        payload = bytes(buf[end + 2 : stop])
        del buf[: stop + 2]
        return b"$", payload
    if kind not in (b"+", b"-", b":"):
        raise BenchError(f"unexpected reply type {bytes(buf[:20])!r}")
    payload = bytes(buf[1:end])
    del buf[: end + 2]
    return kind, payload


OK = (b"+", b"OK")
BGSAVE = encode_command(b"BGSAVE")
BGSAVE_OK = (b"+", b"Background saving started")


class Ops:
    """Seeded GET/SET generator for one connection's key partition.

    Keeps the expected value of every owned key, so each generated GET
    carries the reply it must get back.
    """

    def __init__(self, spec: WireSpec, conn_id: int, seed: int,
                 filler: bytes):
        self.spec = spec
        self.conn_id = conn_id
        self.rng = random.Random(seed * 1000 + conn_id)
        self.filler = filler
        self.model: dict[int, bytes] = {}
        self.version = 0
        self.owned = range(conn_id, spec.keys, 2)
        self.sent = 0
        self.bgsaves = 0
        self.bgsave_every = spec.bgsave_every if conn_id == 0 else 0

    def next_op(self) -> tuple[bytes, tuple]:
        """One request and its expected reply."""
        self.sent += 1
        if self.bgsave_every and self.sent % self.bgsave_every == 0:
            self.bgsaves += 1
            return BGSAVE, BGSAVE_OK
        key_i = self.rng.choice(self.owned)
        key = b"key:%012d" % key_i
        if self.rng.random() < self.spec.set_frac:
            self.version += 1
            head = b"c%d:k%d:v%d:" % (self.conn_id, key_i, self.version)
            size = self.spec.value_size
            off = self.rng.randrange(len(self.filler) - size)
            value = head + self.filler[off : off + size - len(head)]
            self.model[key_i] = value
            return encode_command(b"SET", key, value), OK
        expected = self.model.get(key_i, bytes(self.spec.value_size))
        return encode_command(b"GET", key), (b"$", expected)


def filler_bytes(seed: int) -> bytes:
    """Seeded bytes that SET values are cut from."""
    return random.Random(seed).randbytes(64 * 1024)


class Conn:
    """One non-blocking client connection and its in-flight requests."""

    def __init__(self, address, ops: Ops):
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.ops = ops
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        #: In flight, in order: (sent at, expected reply, measured?).
        self.pending: collections.deque = collections.deque()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, payload: bytes, expected, sent: float, measured: bool):
        self.pending.append((sent, expected, measured))
        self.wbuf += payload
        self.flush()

    def flush(self) -> None:
        if self.wbuf:
            try:
                sent = self.sock.send(self.wbuf)
            except BlockingIOError:
                return
            del self.wbuf[:sent]

    def read(self):
        """Receive what is ready; yields ``(pending entry, reply)``."""
        data = self.sock.recv(256 * 1024)
        if not data:
            raise BenchError("server closed a connection mid-run")
        self.rbuf += data
        while self.pending:
            reply = parse_reply(self.rbuf)
            if reply is None:
                break
            yield self.pending.popleft(), reply

    def call(self, *parts: bytes, timeout: float = 10.0):
        """Blocking request/reply, outside the measured loop."""
        assert not self.pending
        self.wbuf += encode_command(*parts)
        deadline = time.perf_counter() + timeout
        while True:
            self.flush()
            reply = parse_reply(self.rbuf)
            if reply is not None:
                return reply
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError(f"no reply to {parts[0]!r}")
            ready, _, _ = select.select([self.sock], [], [], left)
            if ready:
                data = self.sock.recv(256 * 1024)
                if not data:
                    raise BenchError("server closed a connection")
                self.rbuf += data

    def close(self) -> None:
        self.sock.close()


# ----------------------------------------------------------------------
# load loops
# ----------------------------------------------------------------------


@dataclass
class Load:
    """Replies and checks of one load loop."""

    #: ``(sent at, latency s)`` of every measured request; a failed one
    #: counts as infinitely late.
    latencies: list = field(default_factory=list)
    #: Every reply, warm-up included (the server-CPU denominator).
    total: int = 0
    failed: int = 0
    bgsaves: int = 0
    problems: list = field(default_factory=list)

    def record(self, entry, reply, tamper) -> None:
        sent, expected, measured = entry
        done = time.perf_counter()
        if tamper is not None:
            reply = tamper(reply)
        ok = _check(reply, expected, self)
        self.total += 1
        if measured:
            latency = (done - sent) if ok else float("inf")
            self.latencies.append((sent, latency))


def _check(reply, expected, load: Load) -> bool:
    if reply == expected:
        return True
    load.failed += 1
    if len(load.problems) < 5:
        load.problems.append(_describe(reply, expected))
    return False


def _describe(reply, expected) -> str:
    if reply[0] == expected[0] == b"$" and None not in (reply[1],
                                                        expected[1]):
        want, got = expected[1], reply[1]
        at = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                  min(len(want), len(got)))
        return (f"GET reply differs from the last write at byte {at} "
                f"({len(got)} bytes, expected {len(want)})")
    return f"expected {expected!r:.60} got {reply!r:.60}"


def _poll(conns, load: Load, tamper, timeout: float) -> None:
    """Flush pending sends, then record every reply that has arrived."""
    waiting = [c for c in conns if c.pending]
    want_write = [c for c in conns if c.wbuf]
    ready, writable, _ = select.select(waiting, want_write, [], timeout)
    for conn in writable:
        conn.flush()
    for conn in ready:
        for entry, reply in conn.read():
            load.record(entry, reply, tamper)


def closed_loop(conns, seconds: float, tamper=None):
    """Each connection keeps one request in flight (unpipelined)."""
    load = Load()
    start = time.perf_counter()
    t_lo = start + WARMUP_S
    t_hi = t_lo + seconds
    last_progress = start
    while True:
        now = time.perf_counter()
        for conn in conns:
            if not conn.pending and now < t_hi:
                payload, expected = conn.ops.next_op()
                conn.send(payload, expected, now, now >= t_lo)
        if not any(c.pending for c in conns):
            load.bgsaves = sum(c.ops.bgsaves for c in conns)
            return load, t_lo, t_hi
        before = load.total
        _poll(conns, load, tamper, 0.05)
        if load.total != before:
            last_progress = time.perf_counter()
        elif time.perf_counter() - last_progress > STALL_LIMIT_S:
            raise BenchError("server stopped answering (closed loop)")


# ----------------------------------------------------------------------
# one phase: spawn(s), load, checks
# ----------------------------------------------------------------------


def _info(conn: Conn) -> dict[str, str]:
    kind, payload = conn.call(b"INFO")
    if kind != b"$" or payload is None:
        raise BenchError("INFO did not return a bulk string")
    fields = {}
    for line in payload.decode().split("\r\n"):
        if ":" in line:
            name, value = line.split(":", 1)
            fields[name] = value
    return fields


def _final_checks(conn: Conn, load: Load, result: Result) -> None:
    """Every BGSAVE sent completed ok, per INFO at the end."""
    for _ in range(10_000):
        info = _info(conn)
        if info["rdb_bgsave_in_progress"] == "0":
            break
    else:
        result.fail("last BGSAVE never finished")
        return
    completed = int(info["completed_snapshots"])
    if completed != load.bgsaves:
        result.fail(
            f"{load.bgsaves} BGSAVEs sent, {completed} completed",
            count=max(1, abs(load.bgsaves - completed)),
        )
    if info["failed_background_jobs"] != "0":
        result.fail(f"failed_background_jobs={info['failed_background_jobs']}")
    if load.bgsaves and info["rdb_last_bgsave_status"] != "ok":
        result.fail("rdb_last_bgsave_status is not ok")


@dataclass
class Phase:
    """What one server's measured run produced."""

    load: Load
    t_lo: float
    t_hi: float
    setup_s: list
    #: Server CPU over the whole load loop (warm-up included).
    server_cpu_s: float
    server_hwm_mb: float
    client_cpu_util: float
    steal: float
    #: Host speed (``SpeedProbe.speed``) over the spawns and the load.
    setup_speed: float
    load_speed: float
    layer_snap: Optional[dict] = None


def run_phase(spec: WireSpec, seed: int, seconds: float, workdir: str,
              result: Result, probe: SpeedProbe, spawns: int = SETUP_SPAWNS,
              traced: bool = False,
              tamper: Optional[Callable] = None) -> Phase:
    """Spawn the server ``spawns`` times (timing each), load the last one."""
    max_runtime = WARMUP_S + seconds + 90.0
    stats_file = os.path.join(workdir, "layers.json") if traced else None
    setups = []
    server = None
    try:
        setup_mark = time.perf_counter()
        for n in range(spawns):
            server = Server(spec, workdir, f"{n}", max_runtime, stats_file)
            setups.append(server.setup_s)
            if n < spawns - 1:
                server.stop()
        setup_speed = probe.speed(setup_mark, time.perf_counter())
        filler = filler_bytes(seed)
        conns = [Conn(server.address, Ops(spec, c, seed, filler))
                 for c in (0, 1)]
        try:
            if traced:
                server.signal_and_wait(signal.SIGUSR1, stats_file + ".reset")
            cpu0 = proc_cpu_s(server.proc.pid)
            me0 = self_cpu_s()
            steal0 = host_cpu_ticks()
            t0 = time.perf_counter()
            load_mark = time.perf_counter()
            load, t_lo, t_hi = closed_loop(conns, seconds, tamper)
            load_speed = probe.speed(load_mark, time.perf_counter())
            client_util = (self_cpu_s() - me0) / (time.perf_counter() - t0)
            server_cpu = proc_cpu_s(server.proc.pid) - cpu0
            steal = steal_frac(steal0, host_cpu_ticks())
            snap = None
            if traced:
                server.signal_and_wait(signal.SIGUSR2, stats_file)
                with open(stats_file) as handle:
                    snap = json.load(handle)
            # Peak RSS must be read while the server still lives.
            hwm = vm_hwm_mb(server.proc.pid)
            _final_checks(conns[0], load, result)
        finally:
            for conn in conns:
                conn.close()
    finally:
        if server is not None:
            server.stop()
    result.problems.extend(load.problems)
    result.failed += load.failed
    result.attempted += load.total
    return Phase(load, t_lo, t_hi, setups, server_cpu, hwm, client_util,
                 steal, setup_speed, load_speed, snap)


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str, tamper: Optional[Callable] = None,
        spawns: int = SETUP_SPAWNS,
        probe: Optional[SpeedProbe] = None) -> Result:
    """One benchmark run of a wire workload."""
    spec = SPECS[workload]
    result = Result()
    probe = probe or SpeedProbe(enabled=False)
    if not trace:
        phase = run_phase(spec, seed, seconds, workdir, result, probe,
                          spawns, tamper=tamper)
        _end_to_end(phase, result)
        return result
    # Traced run: an untraced half, then a traced half on the same seed;
    # the overhead is the ratio of their server CPU per request.
    half = seconds / 2.0
    plain = run_phase(spec, seed, half, workdir, result, probe, 1,
                      tamper=tamper)
    traced = run_phase(spec, seed, half, workdir, result, probe, 1,
                       traced=True, tamper=tamper)
    snap = traced.layer_snap
    dispatches = sum(
        entry[2] for entry in snap["stats"]
        if (entry[0], entry[1]) == ("session", "dispatch")
    )
    ops = max(1, dispatches)
    per_layer = layers.layer_metrics(snap, ops, snap["window_ns"])
    # Time inside wrapped code, minus the bridge's sleeps (not CPU).
    busy_ns = sum(e[4] for e in snap["stats"] if e[0] != "bridge")
    per_layer["loop.us_per_op"] = (
        (traced.server_cpu_s * 1e9 - busy_ns) / ops / 1e3
    )
    plain_cpu = plain.server_cpu_s / max(1, plain.load.total)
    traced_cpu = traced.server_cpu_s / max(1, traced.load.total)
    per_layer["server.cpu_us_per_op"] = plain_cpu * 1e6
    per_layer["trace.overhead_frac"] = traced_cpu / plain_cpu - 1.0
    per_layer.update(_validity(plain))
    result.put_all(per_layer)
    return result


def _validity(phase: Phase) -> dict[str, float]:
    return {
        "client.cpu_util": phase.client_cpu_util,
        "host.steal_frac": phase.steal,
    }


def _end_to_end(phase: Phase, result: Result) -> None:
    """Throughput and percentiles are taken over the whole window, and
    every timing is scaled to host speed 1.0 (see ``SpeedProbe``).

    The host's speed changes from second to second (a wire-snapshot run
    moved between about 1,100 and 1,900 replies per second slice), so a
    median over one-second slices jumps with whichever speed held more
    than half the slices.  Whole-window figures weigh each speed by its
    share of the run.  A wire-kv window holds about 250,000 requests and
    a wire-snapshot window about 40,000, 400 of them beyond its p99.
    """
    load = phase.load
    window = phase.t_hi - phase.t_lo
    speed = phase.load_speed
    latencies_ms = [latency * 1e3 * speed for _, latency in load.latencies]
    result.put("setup_s", median(phase.setup_s) * phase.setup_speed, "s")
    result.put("ops_per_s", len(latencies_ms) / window / speed, "1/s")
    result.put("sim_qps",
               load.total / max(phase.server_cpu_s, 1e-9) / speed, "1/s")
    for q in (50, 99):
        result.put(f"latency_p{q}_ms", percentile(latencies_ms, q), "ms")
    result.put("peak_rss_mb", phase.server_hwm_mb, "MB")
    result.put_ok_frac()
    result.validity.update(_validity(phase))
    result.validity.update({"host.setup_speed": phase.setup_speed,
                            "host.load_speed": speed})
