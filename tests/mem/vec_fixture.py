"""Deterministic substrate scenario whose digests pin vectorization.

:func:`run_scenario` drives every hot path the vectorized substrate
rewrites — default-fork clone, Async-fork proactive sync and child copy,
ODF unshare, CoW fault storms, write-protect sweeps, zap/TLB-range
invalidation, WSS estimation, and the RDB keyspace walk — from a fixed
seed, and returns a digest bundle:

* per-address-space snapshot-oracle digests,
* the blake2b hash of the byte-exact Chrome-trace export,
* the RDB payload digest of a child serialization,
* a handful of counters (TLB flushes, fault counts, fork stats).

``tests/mem/fixtures/vectorized_equivalence.json`` stores the bundle as
produced by the **pre-vectorization** substrate; the equivalence test
re-runs the scenario and asserts byte-identical results.  Regenerate
(only when the scenario itself changes, never to paper over a digest
mismatch) with::

    PYTHONPATH=src python -m tests.mem.vec_fixture
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from repro.analysis.oracle import SnapshotOracle
from repro.core.async_fork import AsyncFork
from repro.determinism import seeded_rng
from repro.kernel import task
from repro.kernel.forks.default import DefaultFork
from repro.kernel.forks.odf import OnDemandFork
from repro.kernel.task import Process
from repro.kvs import rdb
from repro.kvs.store import KvStore, PageWalk
from repro.mem.address_space import AddressSpace
from repro.mem.frames import FrameAllocator
from repro.mem.vma import VmaProt
from repro.obs import tracer as obs
from repro.obs.export import chrome_trace_json
from repro.units import MIB, PAGE_SIZE

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "vectorized_equivalence.json"

_SEED = 20230411  # the paper's publication year/month, nothing magic


def _oracle_digest(mm) -> str:
    """One stable hex digest summarizing an address space's oracle."""
    oracle = SnapshotOracle.capture(mm)
    h = hashlib.blake2b(digest_size=16)
    for vaddr in sorted(oracle.pages):
        h.update(vaddr.to_bytes(8, "little"))
        h.update(oracle.pages[vaddr])
    for base in sorted(oracle.huge):
        h.update(b"huge")
        h.update(base.to_bytes(8, "little"))
        h.update(oracle.huge[base])
    return h.hexdigest()


def run_scenario() -> dict:
    """Run the pinned scenario; returns the digest bundle (JSON-safe)."""
    # Pin the global pid counter so mm names (which embed pids and appear
    # in trace events) do not depend on what ran earlier in the session.
    saved_counter = task._pid_counter
    task._pid_counter = itertools.count(40_000)
    tracer = obs.Tracer()
    obs.install(tracer)
    try:
        return _run_scenario_body(tracer)
    finally:
        obs.uninstall(tracer)
        task._pid_counter = saved_counter


def _run_scenario_body(tracer: obs.Tracer) -> dict:
    rng = seeded_rng(_SEED)
    frames = FrameAllocator()
    parent = Process(
        frames,
        name="fix-parent",
        mm=AddressSpace(frames, name="fix-parent"),
    )
    mm = parent.mm
    vma = mm.mmap(8 * MIB)  # four full PTE tables

    # Populate: seeded writes over ~3/4 of the pages, some read-only
    # zero-page faults, a sparse boundary table.
    npages = (vma.end - vma.start) // PAGE_SIZE
    touched = sorted(
        int(i) for i in rng.choice(npages, size=(npages * 3) // 4, replace=False)
    )
    for i in touched:
        payload = bytes(
            rng.integers(0, 256, size=64, dtype="uint8")
        ) * (PAGE_SIZE // 64)
        mm.write_memory(vma.start + i * PAGE_SIZE, payload[: PAGE_SIZE // 2])
    for i in range(0, npages, 37):
        mm.read_memory(vma.start + i * PAGE_SIZE, 16)

    store = KvStore(mm)
    for k in range(200):
        store.set(f"key:{k:04d}", bytes([k % 251]) * 700)

    fork_time_digest = _oracle_digest(mm)
    oracle = SnapshotOracle.capture(mm)

    # Async fork: interleave parent writes (forcing proactive syncs)
    # with child copy steps, then drain.
    async_engine = AsyncFork()
    result = async_engine.fork(parent)
    session = result.session
    writes = [int(i) for i in rng.choice(npages, size=48, replace=False)]
    for burst in range(8):
        for i in writes[burst * 6 : burst * 6 + 6]:
            mm.write_memory(
                vma.start + i * PAGE_SIZE, bytes([burst + 1]) * 128
            )
        session.child_step()
    session.run_to_completion()
    child = result.child
    oracle.assert_consistent(child.mm)

    # The child serializes the inherited keyspace (the RDB walk).
    snapshot = rdb.dump(PageWalk(child.mm, store.table_snapshot()))

    # Default fork of the parent (post-drain state), then CoW faults.
    grandchild = DefaultFork().fork(parent).child
    for i in writes[:12]:
        mm.write_memory(vma.start + i * PAGE_SIZE, b"after-default" * 9)

    # ODF fork + unshare a few tables from both sides.
    odf_result = OnDemandFork().fork(parent)
    odf_child = odf_result.child
    for i in (3, npages // 2, npages - 5):
        mm.write_memory(vma.start + i * PAGE_SIZE, b"odf-parent")
        odf_child.mm.handle_fault(
            vma.start + ((i + 1) % npages) * PAGE_SIZE, write=True
        )

    # VMA-wide modifications: zap the middle, protect the tail, age bits.
    mm.munmap(vma.start + 2 * MIB + 17 * PAGE_SIZE, MIB // 2)
    mm.mprotect(vma.start + 6 * MIB, MIB, VmaProt.READ)
    wss_before = mm.estimate_wss()
    mm.clear_accessed_bits()
    wss_after = mm.estimate_wss()

    bundle = {
        "seed": _SEED,
        "fork_time_oracle": fork_time_digest,
        "parent_oracle": _oracle_digest(mm),
        "async_child_oracle": _oracle_digest(child.mm),
        "default_child_oracle": _oracle_digest(grandchild.mm),
        "odf_child_oracle": _oracle_digest(odf_child.mm),
        "rdb_digest": snapshot.digest,
        "rdb_entries": snapshot.entry_count,
        "wss_before": wss_before,
        "wss_after": wss_after,
        "parent_rss": mm.rss,
        "parent_faults": mm.stats["faults"],
        "parent_cow": mm.stats["cow_copies"],
        "parent_zapped": mm.stats["zapped"],
        "parent_tlb_flushes": mm.tlb.flushes,
        "async_child_tlb_flushes": child.mm.tlb.flushes,
        "async_tables_copied": result.stats.child_tables_copied,
        "async_proactive_syncs": result.stats.proactive_syncs,
        "odf_table_faults": odf_result.stats.table_faults,
        "trace_events": len(tracer),
        "trace_blake2b": hashlib.blake2b(
            chrome_trace_json(tracer).encode(), digest_size=16
        ).hexdigest(),
    }
    return bundle


def main() -> None:
    bundle = run_scenario()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")
    for key, value in sorted(bundle.items()):
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()
