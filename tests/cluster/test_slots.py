"""CRC16, hash tags, and the slot map."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.slots import (
    NUM_SLOTS,
    SlotMap,
    command_keys,
    crc16,
    hashable_part,
    key_slot,
)


class TestCrc16:
    def test_xmodem_check_value(self):
        # The standard CRC16/XMODEM check input, per the Redis Cluster
        # specification's reference implementation.
        assert crc16(b"123456789") == 0x31C3

    def test_empty_input(self):
        assert crc16(b"") == 0

    def test_slot_range(self):
        for key in (b"foo", b"bar", b"user:1000", b"", b"\x00\xff"):
            assert 0 <= key_slot(key) < NUM_SLOTS

    def test_str_and_bytes_agree(self):
        assert key_slot("counter") == key_slot(b"counter")

    def test_spec_slot_vectors(self):
        # Redis Cluster's documented examples.
        assert key_slot(b"foo") == 12182
        assert key_slot(b"{user1000}.following") == 3443
        assert key_slot(b"{user1000}.followers") == 3443

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=80))
    def test_matches_the_table_driven_oracle(self, data):
        assert crc16(data) == table_crc16(data)

    def test_oracle_check_value(self):
        assert table_crc16(b"123456789") == 0x31C3


def _build_crc16_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else (crc << 1)
        table.append(crc & 0xFFFF)
    return tuple(table)


_CRC16_TABLE = _build_crc16_table()


def table_crc16(data: bytes) -> int:
    """The table-driven CRC16/XMODEM loop of the Redis Cluster spec's
    reference code: the oracle for the C ``crc16``."""
    crc = 0
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[(crc >> 8) ^ byte]
    return crc


class TestHashTags:
    def test_tag_groups_keys_on_one_slot(self):
        assert key_slot(b"{user1000}.following") == key_slot(
            b"{user1000}.followers"
        )
        assert key_slot(b"{user1000}.following") == key_slot(b"user1000")

    def test_empty_tag_hashes_whole_key(self):
        # The spec: "{}" is not a usable tag, the whole key is hashed.
        assert hashable_part(b"foo{}{bar}") == b"foo{}{bar}"

    def test_nested_braces_take_first_pair(self):
        assert hashable_part(b"foo{{bar}}zap") == b"{bar"
        assert hashable_part(b"foo{bar}{zap}") == b"bar"

    def test_unclosed_brace_hashes_whole_key(self):
        assert hashable_part(b"foo{bar") == b"foo{bar"


class TestCommandKeys:
    def test_single_key_commands(self):
        assert command_keys(b"SET", [b"k", b"v"]) == [b"k"]
        assert command_keys(b"get", [b"k"]) == [b"k"]

    def test_multi_key_commands(self):
        assert command_keys(b"DEL", [b"a", b"b"]) == [b"a", b"b"]
        assert command_keys(b"EXISTS", [b"a"]) == [b"a"]

    def test_keyless_commands(self):
        assert command_keys(b"PING", []) == []
        assert command_keys(b"INFO", []) == []


class TestSlotMap:
    def test_ranges_partition_the_slot_space(self):
        slot_map = SlotMap(5)
        covered = []
        for rng in slot_map.ranges:
            covered.extend(range(rng.start, rng.end + 1))
        assert covered == list(range(NUM_SLOTS))

    def test_even_split(self):
        slot_map = SlotMap(4)
        widths = {r.end - r.start + 1 for r in slot_map.ranges}
        assert widths == {NUM_SLOTS // 4}

    def test_owner_lookup_matches_ranges(self):
        slot_map = SlotMap(3)
        for rng in slot_map.ranges:
            assert slot_map.shard_of_slot(rng.start) == rng.shard_id
            assert slot_map.shard_of_slot(rng.end) == rng.shard_id

    def test_address_round_trip(self):
        slot_map = SlotMap(4)
        for shard_id in range(4):
            address = slot_map.address_of(shard_id)
            assert slot_map.shard_of_address(address) == shard_id

    def test_unknown_address_rejected(self):
        slot_map = SlotMap(2)
        with pytest.raises(ValueError):
            slot_map.shard_of_address("10.0.0.1:7000")
        with pytest.raises(ValueError):
            slot_map.shard_of_address("127.0.0.1:7002")

    def test_moved_error_format(self):
        slot_map = SlotMap(2)
        slot = key_slot(b"foo")
        owner = slot_map.shard_of_slot(slot)
        assert slot_map.moved_error(slot) == (
            f"MOVED {slot} 127.0.0.1:{7000 + owner}"
        )

    def test_shard_count_bounds(self):
        with pytest.raises(ValueError):
            SlotMap(0)
