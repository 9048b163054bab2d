"""Tests for the snapshot (RDB-like) serialization."""

from __future__ import annotations

import hashlib
import struct
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.determinism import seeded_random
from repro.errors import CorruptSnapshotError
from repro.faults import SITE_RDB_BYTES, FaultSpec, corrupt_snapshot
from repro.kvs import rdb
from repro.kvs.store import KvStore, PageWalk
from repro.mem.address_space import AddressSpace
from repro.mem.frames import FrameAllocator

VALUE = 4096


def _entries(n: int = 256):
    """Fresh (key, value) pairs."""
    return ((b"key%04d" % i, bytes([i % 251]) * VALUE) for i in range(n))


def _eager(entries) -> bytes:
    """The payload joined the obvious way, entry by entry."""
    entries = list(entries)
    out = [rdb.MAGIC, struct.pack("<I", len(entries))]
    for key, value in entries:
        out += [struct.pack("<I", len(key)), key]
        out += [struct.pack("<I", len(value)), value]
    return b"".join(out)


class TestRoundTrip:
    def test_empty(self):
        snapshot = rdb.dump([])
        assert snapshot.entry_count == 0
        assert list(rdb.load(snapshot)) == []

    def test_simple(self):
        entries = [(b"k1", b"v1"), (b"k2", b"v2")]
        snapshot = rdb.dump(entries)
        assert snapshot.entry_count == 2
        assert list(rdb.load(snapshot)) == entries

    def test_binary_safe(self):
        entries = [(b"\x00\xff", b"\x00" * 100), (b"", b"")]
        assert list(rdb.load(rdb.dump(entries))) == entries

    def test_size_reflects_payload(self):
        small = rdb.dump([(b"k", b"v")])
        large = rdb.dump([(b"k", b"v" * 10_000)])
        assert large.size > small.size + 9_000

    def test_bad_magic_rejected(self):
        snapshot = rdb.SnapshotFile(payload=b"XXXX....")
        try:
            list(rdb.load(snapshot))
        except ValueError:
            return
        raise AssertionError("bad magic accepted")

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.binary(max_size=40),
                st.binary(max_size=200),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, entries):
        assert list(rdb.load(rdb.dump(entries))) == entries


def _walk(n: int = 256) -> PageWalk:
    """A keyspace walk over ``_entries(n)``, in an address space of its
    own."""
    store = KvStore(AddressSpace(FrameAllocator(), name="walked"))
    for key, value in _entries(n):
        store.set(key, value)
    return PageWalk(store.mm, store.table_snapshot())


class TestLazyFile:
    """``dump`` of a walk neither packs, joins nor hashes; the file does
    all three when a reader asks, with the same bytes and digest as an
    eager join and one blake2b of it."""

    @pytest.mark.parametrize("count", [0, 256])
    def test_size_and_count_are_right_before_any_read(self, count):
        snapshot = rdb.dump(_walk(count))
        size, entries = snapshot.size, snapshot.entry_count
        assert entries == count
        assert size == len(_eager(_entries(count)))
        assert len(snapshot.payload) == size

    def test_close_allocates_far_less_than_the_payload(self):
        """Making the file of a walk the slices finished."""
        walk = _walk()
        while not walk.done:
            walk.take(16 * VALUE)
        tracemalloc.start()
        try:
            snapshot = rdb.dump(walk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < snapshot.size // 100

    @pytest.mark.parametrize("count", [0, 256])
    def test_payload_and_digest_equal_an_eager_join(self, count):
        walk = _walk(count)
        walk.take(50 * VALUE)  # a few takes, as slices do
        walk.take(50 * VALUE)
        snapshot = rdb.dump(walk)  # takes the rest
        eager = _eager(_entries(count))
        assert snapshot.digest == hashlib.blake2b(
            eager, digest_size=16
        ).hexdigest()
        assert snapshot.payload == eager

    def test_reading_the_payload_releases_the_parts(self):
        walk = _walk()
        snapshot = rdb.dump(walk)
        pages = walk.pages
        del walk
        refs = sys.getrefcount(pages)
        tracemalloc.start()
        try:
            payload = snapshot.payload
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The file let go of the walk's page images ...
        assert sys.getrefcount(pages) == refs - 1
        # ... for the joined bytes: one copy is held, not two.
        assert snapshot.size <= held < 1.2 * snapshot.size
        assert snapshot.payload is payload

    @pytest.mark.parametrize("kind", ["bitrot", "truncate"])
    def test_damage_to_a_never_read_snapshot_fails_verify(self, kind):
        snapshot = rdb.dump(_walk(16))
        spec = FaultSpec(site=SITE_RDB_BYTES, kind=kind, magnitude=1)
        bad = corrupt_snapshot(snapshot, spec, seeded_random(3))
        assert bad.digest == snapshot.digest
        with pytest.raises(CorruptSnapshotError, match="digest"):
            rdb.verify(bad)
        rdb.verify(snapshot)

    def test_every_verify_hashes_the_payload_it_checks(self, monkeypatch):
        snapshot = rdb.dump(_walk(16))
        hashed = []
        digest = rdb._digest
        monkeypatch.setattr(
            rdb, "_digest", lambda data: hashed.append(data) or digest(data)
        )
        rdb.verify(snapshot)  # never read: one hash is the digest
        first = len(hashed)
        rdb.verify(snapshot)
        assert first == 1 and len(hashed) == first + 1
        assert all(data is snapshot.payload for data in hashed)

    def test_a_wrong_digest_fails_verify(self):
        good = rdb.dump(_entries(16))
        forged = rdb.SnapshotFile(
            payload=good.payload, entry_count=16, digest="0" * 32
        )
        with pytest.raises(CorruptSnapshotError, match="digest"):
            rdb.verify(forged)

    def test_hand_built_file_is_only_magic_checked(self):
        snapshot = rdb.SnapshotFile(payload=rdb.MAGIC + bytes(4))
        assert snapshot.digest is None
        assert snapshot.size == 8
        rdb.verify(snapshot)
        assert list(rdb.load(snapshot)) == []
