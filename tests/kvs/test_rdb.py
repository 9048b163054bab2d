"""Tests for the snapshot (RDB-like) serialization."""

from __future__ import annotations

import hashlib
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.determinism import seeded_random
from repro.errors import CorruptSnapshotError
from repro.faults import SITE_RDB_BYTES, FaultSpec, corrupt_snapshot
from repro.kvs import rdb

VALUE = 4096


def _entries(n: int = 256):
    """Fresh values, so the writer's parts hold the only references."""
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


class TestLazyFile:
    """``Writer.close`` neither joins nor hashes; the file does both
    when a reader asks, with the same bytes and digest as an eager
    join and one blake2b of it."""

    @pytest.mark.parametrize("count", [None, 256])
    def test_size_and_count_are_right_before_any_read(self, count):
        writer = rdb.Writer(count)
        writer.write(_entries())
        snapshot = writer.close()
        size, entries = snapshot.size, snapshot.entry_count
        assert entries == 256
        assert size == len(_eager(_entries()))
        assert len(snapshot.payload) == size

    def test_close_allocates_far_less_than_the_payload(self):
        writer = rdb.Writer(256)
        writer.write(_entries())
        tracemalloc.start()
        try:
            snapshot = writer.close()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < snapshot.size // 100

    @pytest.mark.parametrize("count", [None, 256])
    def test_payload_and_digest_equal_an_eager_join(self, count):
        writer = rdb.Writer(count)
        for lo in range(0, 256, 50):  # several writes, as slices do
            writer.write(
                (key, value)
                for i, (key, value) in enumerate(_entries())
                if lo <= i < lo + 50
            )
        snapshot = writer.close()
        eager = _eager(_entries())
        assert snapshot.digest == hashlib.blake2b(
            eager, digest_size=16
        ).hexdigest()
        assert snapshot.payload == eager

    def test_reading_the_payload_releases_the_parts(self):
        tracemalloc.start()
        try:
            writer = rdb.Writer(256)
            writer.write(_entries())
            snapshot = writer.close()
            del writer
            packed, _ = tracemalloc.get_traced_memory()
            payload = snapshot.payload
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert packed > snapshot.size
        # The joined bytes replaced the parts: one copy is held, not two.
        assert held < 1.2 * snapshot.size
        assert snapshot.payload is payload

    @pytest.mark.parametrize("kind", ["bitrot", "truncate"])
    def test_damage_to_a_never_read_snapshot_fails_verify(self, kind):
        snapshot = rdb.dump(_entries(16))
        spec = FaultSpec(site=SITE_RDB_BYTES, kind=kind, magnitude=1)
        bad = corrupt_snapshot(snapshot, spec, seeded_random(3))
        assert bad.digest == snapshot.digest
        with pytest.raises(CorruptSnapshotError, match="digest"):
            rdb.verify(bad)
        rdb.verify(snapshot)

    def test_every_verify_hashes_the_payload_it_checks(self, monkeypatch):
        snapshot = rdb.dump(_entries(16))
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
