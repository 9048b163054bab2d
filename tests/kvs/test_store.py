"""Tests for the key-value store."""

from __future__ import annotations

import pytest

from repro.errors import KvsError
from repro.kernel.task import Process
from repro.kvs.store import KvStore, PageWalk


@pytest.fixture
def store(frames):
    return KvStore(Process(frames, name="kvs").mm)


class TestBasicOps:
    def test_set_get(self, store):
        store.set("k", b"v")
        assert store.get("k") == b"v"

    def test_get_missing(self, store):
        assert store.get("nope") is None

    def test_bytes_and_str_keys_equivalent(self, store):
        store.set("k", b"v")
        assert store.get(b"k") == b"v"

    def test_bad_key_type_rejected(self, store):
        with pytest.raises(KvsError):
            store.set(42, b"v")

    def test_delete(self, store):
        store.set("k", b"v")
        assert store.delete("k")
        assert store.get("k") is None
        assert not store.delete("k")

    def test_len_and_contains(self, store):
        store.set("a", b"1")
        store.set("b", b"2")
        assert len(store) == 2
        assert "a" in store
        assert "zz" not in store

    def test_overwrite(self, store):
        store.set("k", b"one")
        store.set("k", b"two")
        assert store.get("k") == b"two"
        assert len(store) == 1

    def test_empty_value(self, store):
        store.set("k", b"")
        assert store.get("k") == b""

    def test_large_value_spans_pages(self, store):
        value = bytes(range(256)) * 64  # 16 KiB
        store.set("big", value)
        assert store.get("big") == value

    def test_str_value_encoded(self, store):
        store.set("k", "text")
        assert store.get("k") == b"text"


class TestInPlaceUpdate:
    def test_same_size_reuses_address(self, store):
        store.set("k", b"aaaa")
        ref1 = store.table_snapshot()[b"k"]
        store.set("k", b"bbbb")
        ref2 = store.table_snapshot()[b"k"]
        assert ref1.vaddr == ref2.vaddr

    def test_growth_beyond_class_reallocates(self, store):
        store.set("k", b"a" * 64)
        ref1 = store.table_snapshot()[b"k"]
        store.set("k", b"b" * 4096)
        ref2 = store.table_snapshot()[b"k"]
        assert ref1.vaddr != ref2.vaddr
        assert store.get("k") == b"b" * 4096

    def test_shrink_updates_length(self, store):
        store.set("k", b"a" * 100)
        store.set("k", b"xy")
        assert store.get("k") == b"xy"


class TestDirtyCounter:
    def test_counts_writes(self, store):
        store.set("a", b"1")
        store.set("a", b"2")
        store.delete("a")
        assert store.dirty_since_save == 3

    def test_get_does_not_count(self, store):
        store.set("a", b"1")
        store.get("a")
        assert store.dirty_since_save == 1


class TestChildView:
    def test_page_walk_of_other_mm(self, store, frames):
        from repro.kernel.forks.default import DefaultFork
        from repro.kernel.task import Process

        # Rebuild a store over a Process we can fork.
        parent = Process(frames, name="engine")
        store = KvStore(parent.mm)
        store.set("k1", b"v1")
        store.set("k2", b"v2")
        result = DefaultFork().fork(parent)
        table = store.table_snapshot()  # the child's inherited table
        store.set("k1", b"XY")  # same length: updates the page in place
        items = dict(PageWalk(result.child.mm, table).items())
        assert items[b"k1"] == b"v1"  # the child's CoW copy is untouched
        assert items[b"k2"] == b"v2"
        assert store.get("k1") == b"XY"
