"""Tests for the mm_struct model: syscalls, faults, CoW, checkpoints."""

from __future__ import annotations

import pytest

from repro.config import AsyncForkConfig
from repro.core.async_fork import AsyncFork
from repro.errors import InvalidAddressError, ProtectionFaultError
from repro.mem import checkpoints as cp
from repro.mem.address_space import AddressSpace
from repro.mem.flags import PteFlags, pte_present
from repro.mem.page_table import PageTable
from repro.mem.vma import VmaList, VmaProt
from repro.units import MIB, PAGE_SIZE


@pytest.fixture
def mm(frames) -> AddressSpace:
    return AddressSpace(frames, name="test")


@pytest.fixture
def events(mm):
    log = []
    mm.subscribe(log.append)
    return log


class TestMmap:
    def test_mmap_creates_vma(self, mm):
        vma = mm.mmap(8 * PAGE_SIZE)
        assert vma.pages == 8

    def test_mmap_rejects_zero(self, mm):
        with pytest.raises(ValueError):
            mm.mmap(0)

    def test_consecutive_mmaps_merge(self, mm):
        mm.mmap(PAGE_SIZE)
        merged = mm.mmap(PAGE_SIZE)
        assert len(mm.vmas) == 1
        assert merged.pages == 2

    def test_mmap_fires_vma_merge_checkpoint(self, mm, events):
        mm.mmap(PAGE_SIZE)
        assert any(e.name == cp.VMA_MERGE for e in events)

    def test_fixed_mapping(self, mm):
        vma = mm.mmap(PAGE_SIZE, fixed_at=0x7000_0000_0000)
        assert vma.start == 0x7000_0000_0000


class TestReadWrite:
    def test_roundtrip(self, mm):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start + 100, b"hello world")
        assert mm.read_memory(vma.start + 100, 11) == b"hello world"

    def test_cross_page_write(self, mm):
        vma = mm.mmap(MIB)
        data = bytes(range(200)) * 50  # 10 KB, spans 3 pages
        mm.write_memory(vma.start + PAGE_SIZE - 100, data)
        assert mm.read_memory(vma.start + PAGE_SIZE - 100, len(data)) == data

    def test_unwritten_reads_zero(self, mm):
        vma = mm.mmap(MIB)
        assert mm.read_memory(vma.start, 16) == b"\x00" * 16

    def test_read_fault_maps_zero_page(self, mm):
        vma = mm.mmap(MIB)
        mm.read_memory(vma.start, 1)
        assert mm.page_table.translate(vma.start) == 0

    def test_write_after_zero_page_read(self, mm):
        vma = mm.mmap(MIB)
        assert mm.read_memory(vma.start, 4) == b"\x00" * 4
        mm.write_memory(vma.start, b"data")
        assert mm.read_memory(vma.start, 4) == b"data"
        assert mm.page_table.translate(vma.start) != 0

    def test_write_unmapped_rejected(self, mm):
        with pytest.raises(InvalidAddressError):
            mm.write_memory(0xDEAD000, b"x")

    def test_write_readonly_rejected(self, mm):
        vma = mm.mmap(MIB, prot=VmaProt.READ)
        with pytest.raises(ProtectionFaultError):
            mm.write_memory(vma.start, b"x")

    def test_rss_counts_written_pages(self, mm):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"x")
        mm.write_memory(vma.start + PAGE_SIZE, b"y")
        assert mm.rss == 2


class TestMunmap:
    def test_full_unmap(self, mm):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"x")
        zapped = mm.munmap(vma.start, MIB)
        assert zapped == 1
        assert len(mm.vmas) == 0
        assert mm.rss == 0

    def test_partial_unmap_splits(self, mm):
        vma = mm.mmap(4 * PAGE_SIZE)
        start = vma.start
        mm.munmap(start + PAGE_SIZE, PAGE_SIZE)
        spans = sorted((v.start, v.end) for v in mm.vmas)
        assert spans == [
            (start, start + PAGE_SIZE),
            (start + 2 * PAGE_SIZE, start + 4 * PAGE_SIZE),
        ]

    def test_unmap_frees_frames(self, mm, frames):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"x")
        frame = mm.page_table.translate(vma.start)
        mm.munmap(vma.start, MIB)
        assert not frames.is_allocated(frame)

    def test_unmap_nothing_is_zero(self, mm):
        assert mm.munmap(0x123000, PAGE_SIZE) == 0

    def test_fires_detach_before_zap(self, mm, events):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"x")
        events.clear()
        mm.munmap(vma.start, MIB)
        detach = [e for e in events if e.name == cp.DETACH_VMAS]
        assert detach, "munmap must fire detach_vmas_to_be_unmapped"


class TestMprotect:
    def test_removing_write_protects_ptes(self, mm):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"x")
        mm.mprotect(vma.start, MIB, VmaProt.READ)
        from repro.mem.flags import pte_writable

        assert not pte_writable(mm.page_table.get_pte(vma.start))
        with pytest.raises(ProtectionFaultError):
            mm.write_memory(vma.start, b"y")

    def test_mprotect_unmapped_rejected(self, mm):
        with pytest.raises(InvalidAddressError):
            mm.mprotect(0x123000, PAGE_SIZE, VmaProt.READ)

    def test_fires_checkpoint(self, mm, events):
        vma = mm.mmap(MIB)
        events.clear()
        mm.mprotect(vma.start, MIB, VmaProt.READ)
        assert any(e.name == cp.DO_MPROTECT for e in events)

    def test_partial_mprotect_splits_vma(self, mm):
        vma = mm.mmap(4 * PAGE_SIZE)
        mm.mprotect(vma.start, PAGE_SIZE, VmaProt.READ)
        assert len(mm.vmas) == 2


class TestMadvise:
    def test_dontneed_drops_pages_keeps_vma(self, mm):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"x")
        dropped = mm.madvise_dontneed(vma.start, MIB)
        assert dropped == 1
        assert len(mm.vmas) == 1
        assert mm.read_memory(vma.start, 1) == b"\x00"

    def test_fires_checkpoint(self, mm, events):
        vma = mm.mmap(MIB)
        events.clear()
        mm.madvise_dontneed(vma.start, MIB)
        assert any(e.name == cp.MADVISE_VMA for e in events)


class TestMremap:
    def test_grow(self, mm):
        vma = mm.mmap(PAGE_SIZE, fixed_at=0x7100_0000_0000)
        mm.mremap(vma, 4 * PAGE_SIZE)
        assert vma.pages == 4

    def test_shrink_zaps_tail(self, mm):
        vma = mm.mmap(4 * PAGE_SIZE, fixed_at=0x7100_0000_0000)
        mm.write_memory(vma.start + 3 * PAGE_SIZE, b"x")
        mm.mremap(vma, PAGE_SIZE)
        assert vma.pages == 1
        assert mm.rss == 0

    def test_fires_checkpoint(self, mm, events):
        vma = mm.mmap(PAGE_SIZE, fixed_at=0x7100_0000_0000)
        events.clear()
        mm.mremap(vma, 2 * PAGE_SIZE)
        assert any(e.name == cp.VMA_TO_RESIZE for e in events)


class TestCow:
    """Copy-on-write across two address spaces sharing frames."""

    def test_shared_frame_copied_on_write(self, mm, frames):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"orig")
        frame = mm.page_table.translate(vma.start)
        # Simulate a fork-style share: bump mapcount and write-protect.
        frames.page(frame).get()
        mm.page_table.write_protect_range(vma.start, vma.end)
        mm.write_memory(vma.start, b"new!")
        new_frame = mm.page_table.translate(vma.start)
        assert new_frame != frame
        assert frames.read(frame, 0, 4) == b"orig"
        assert mm.read_memory(vma.start, 4) == b"new!"

    def test_sole_owner_reuses_in_place(self, mm):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"orig")
        frame = mm.page_table.translate(vma.start)
        mm.page_table.write_protect_range(vma.start, vma.end)
        mm.write_memory(vma.start, b"new!")
        assert mm.page_table.translate(vma.start) == frame


class TestWriteWork:
    """One written page costs one PMD walk and one VMA lookup, whichever
    way the write resolves (no checkpoint subscriber)."""

    @pytest.fixture
    def work(self, monkeypatch):
        counts = {"walk_pmd": 0, "find": 0}
        walk_pmd, find = PageTable.walk_pmd, VmaList.find

        def counted_walk(self, *args, **kwargs):
            counts["walk_pmd"] += 1
            return walk_pmd(self, *args, **kwargs)

        def counted_find(self, *args, **kwargs):
            counts["find"] += 1
            return find(self, *args, **kwargs)

        monkeypatch.setattr(PageTable, "walk_pmd", counted_walk)
        monkeypatch.setattr(VmaList, "find", counted_find)
        return counts

    def _write_one(self, mm, work, vaddr):
        work.update(walk_pmd=0, find=0)
        faults, copies = mm.stats["faults"], mm.stats["cow_copies"]
        mm.write_memory(vaddr, b"new!")
        assert work == {"walk_pmd": 1, "find": 1}
        assert mm.read_memory(vaddr, 4) == b"new!"
        return mm.stats["faults"] - faults, mm.stats["cow_copies"] - copies

    def test_first_touch_in_existing_table(self, mm, work):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"orig")
        assert self._write_one(mm, work, vma.start + PAGE_SIZE) == (1, 0)

    def test_cow_copy(self, mm, frames, work):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"orig")
        frame = mm.page_table.translate(vma.start)
        frames.page(frame).get()
        mm.page_table.write_protect_range(vma.start, vma.end)
        assert self._write_one(mm, work, vma.start) == (1, 1)
        assert frames.read(frame, 0, 4) == b"orig"

    def test_cow_reuse_by_sole_owner(self, mm, work):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"orig")
        frame = mm.page_table.translate(vma.start)
        mm.page_table.write_protect_range(vma.start, vma.end)
        assert self._write_one(mm, work, vma.start) == (1, 0)
        assert mm.page_table.translate(vma.start) == frame

    def test_zero_page_upgrade(self, mm, work):
        vma = mm.mmap(MIB)
        mm.read_memory(vma.start, 4)
        assert mm.page_table.translate(vma.start) == 0
        assert self._write_one(mm, work, vma.start) == (1, 0)
        assert mm.page_table.translate(vma.start) != 0

    def test_resident_writable_page(self, mm, work):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"orig")
        assert self._write_one(mm, work, vma.start) == (0, 0)

    def test_async_fork_faults_fire_one_checkpoint_each(self, parent):
        """With a session subscribed, each write fault fires exactly one
        HANDLE_MM_FAULT carrying the PMD marker as the fault saw it."""
        engine = AsyncFork(config=AsyncForkConfig())
        engine.fork(parent)
        mm = parent.mm
        base = next(iter(mm.vmas)).start
        seen = []
        mm.subscribe(
            lambda e: seen.append(
                (e.start - base, e.end - base, e.write, e.detail["pmd_wp"])
            )
            if e.name == cp.HANDLE_MM_FAULT
            else None
        )
        faults = mm.stats["faults"]
        for offset in (0, 0, PAGE_SIZE, 2 * MIB, 2 * MIB + 8):
            mm.write_memory(base + offset, b"w")
        assert seen == [
            (0, PAGE_SIZE, True, True),
            (PAGE_SIZE, 2 * PAGE_SIZE, True, False),
            (2 * MIB, 2 * MIB + PAGE_SIZE, True, True),
        ]
        assert mm.stats["faults"] - faults == len(seen)


class TestFollowPage:
    def test_fires_checkpoint_and_pins(self, mm, events):
        vma = mm.mmap(MIB)
        events.clear()
        frame = mm.follow_page(vma.start)
        assert frame != 0
        assert any(e.name == cp.FOLLOW_PAGE_PTE for e in events)


class TestWss:
    def test_estimate_counts_accessed(self, mm):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"x")
        mm.write_memory(vma.start + PAGE_SIZE, b"y")
        assert mm.estimate_wss() == 2
        mm.clear_accessed_bits()
        assert mm.estimate_wss() == 0
        mm.read_memory(vma.start, 1)
        assert mm.estimate_wss() == 1


class TestSnapshotContents:
    def test_image_matches_writes(self, mm):
        vma = mm.mmap(MIB)
        mm.write_memory(vma.start, b"abc")
        image = mm.snapshot_contents()
        assert image[vma.start][:3] == b"abc"
