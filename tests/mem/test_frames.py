"""Tests for the physical frame allocator."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.mem.frames import FrameAllocator
from repro.units import PAGE_SIZE
from tests.faults.frame_faults import fail_allocations


class TestAllocation:
    def test_alloc_returns_distinct_frames(self, frames):
        a = frames.alloc()
        b = frames.alloc()
        assert a.frame != b.frame

    def test_frame_zero_reserved(self, frames):
        assert frames.alloc().frame != 0

    def test_allocated_count(self, frames):
        frames.alloc()
        frames.alloc()
        assert frames.allocated == 2

    def test_free_releases(self, frames):
        page = frames.alloc()
        frames.free(page.frame)
        assert frames.allocated == 0
        assert not frames.is_allocated(page.frame)

    def test_double_free_rejected(self, frames):
        page = frames.alloc()
        frames.free(page.frame)
        with pytest.raises(KeyError):
            frames.free(page.frame)

    def test_free_locked_frame_rejected(self, frames):
        page = frames.alloc()
        assert page.trylock()
        with pytest.raises(RuntimeError):
            frames.free(page.frame)

    def test_capacity_limit(self):
        frames = FrameAllocator(capacity=2)
        frames.alloc()
        frames.alloc()
        with pytest.raises(OutOfMemoryError):
            frames.alloc()

    def test_capacity_frees_make_room(self):
        frames = FrameAllocator(capacity=1)
        page = frames.alloc()
        frames.free(page.frame)
        frames.alloc()  # must not raise

    def test_purpose_tags(self, frames):
        page = frames.alloc("pte-table")
        assert "pte-table" in page.tags


class TestReuse:
    def test_no_reuse_by_default(self, frames):
        page = frames.alloc()
        frames.free(page.frame)
        assert frames.alloc().frame != page.frame

    def test_reuse_freed(self):
        frames = FrameAllocator(reuse_freed=True)
        page = frames.alloc()
        old = page.frame
        frames.free(old)
        assert frames.alloc().frame == old


class TestFailureInjection:
    """An ``oom`` plan at ``mem.frames.alloc``, attached to the allocator."""

    def test_fail_immediately(self, frames):
        fail_allocations(frames, 0)
        with pytest.raises(OutOfMemoryError):
            frames.alloc()

    def test_fail_after_n(self, frames):
        plan = fail_allocations(frames, 2)
        frames.alloc()
        frames.alloc()
        for _ in range(2):  # count=None: every later allocation fails
            with pytest.raises(OutOfMemoryError):
                frames.alloc()
        assert [e.hit for e in plan.events] == [3, 4]

    def test_fail_filter_by_purpose(self, frames):
        fail_allocations(frames, 0, only=lambda p: p == "pte-table")
        frames.alloc("data")  # unaffected
        with pytest.raises(OutOfMemoryError):
            frames.alloc("pte-table")

    def test_disarm(self, frames):
        fail_allocations(frames, 0)
        frames.attach_fault_plan(None)
        frames.alloc()  # must not raise


class TestContents:
    def test_unwritten_reads_zero(self, frames):
        page = frames.alloc()
        assert frames.read(page.frame, 0, 8) == b"\x00" * 8

    def test_write_read_roundtrip(self, frames):
        page = frames.alloc()
        frames.write(page.frame, 100, b"hello")
        assert frames.read(page.frame, 100, 5) == b"hello"

    def test_zero_page_readable(self, frames):
        assert frames.read(0, 0, 4) == b"\x00" * 4

    def test_zero_page_immutable(self, frames):
        with pytest.raises(ValueError):
            frames.write(0, 0, b"x")

    def test_write_beyond_page_rejected(self, frames):
        page = frames.alloc()
        with pytest.raises(ValueError):
            frames.write(page.frame, PAGE_SIZE - 2, b"xyz")

    def test_write_unallocated_rejected(self, frames):
        with pytest.raises(KeyError):
            frames.write(424242, 0, b"x")

    def test_copy_contents(self, frames):
        src = frames.alloc()
        dst = frames.alloc()
        frames.write(src.frame, 0, b"payload")
        frames.copy_contents(src.frame, dst.frame)
        assert frames.read(dst.frame, 0, 7) == b"payload"

    def test_copy_unwritten_source_clears_destination(self, frames):
        src = frames.alloc()
        dst = frames.alloc()
        frames.write(dst.frame, 0, b"stale")
        frames.copy_contents(src.frame, dst.frame)
        assert frames.read(dst.frame, 0, 5) == b"\x00" * 5

    def test_copy_shares_image_but_writes_stay_private(self, frames):
        """After the CoW copy, a partial write to either frame leaves
        the other frame's bytes as they were."""
        src, dst = frames.alloc(), frames.alloc()
        frames.write(src.frame, 0, b"A" * PAGE_SIZE)
        frames.copy_contents(src.frame, dst.frame)
        frames.write(dst.frame, 10, b"dst")
        assert frames.read(src.frame) == b"A" * PAGE_SIZE
        frames.write(src.frame, 20, b"src")
        assert frames.read(dst.frame) == (
            b"A" * 10 + b"dst" + b"A" * (PAGE_SIZE - 13)
        )
        assert frames.read(src.frame, 18, 6) == b"AAsrcA"

    def test_whole_page_buffer_mutated_later(self, frames):
        page = frames.alloc()
        buf = bytearray(b"x" * PAGE_SIZE)
        frames.write(page.frame, 0, buf)
        buf[:4] = b"MUT!"
        assert frames.read(page.frame) == b"x" * PAGE_SIZE
        view = memoryview(buf)
        frames.write(page.frame, 0, view)
        buf[:4] = b"again"[:4]
        assert frames.read(page.frame, 0, 4) == b"MUT!"

    def test_whole_page_reads_return_the_stored_image(self, frames):
        page = frames.alloc()
        data = bytes(range(256)) * (PAGE_SIZE // 256)
        frames.write(page.frame, 0, data)
        assert frames.read(page.frame) is data
        assert frames.read_frames([page.frame, 0]) == [data, bytes(PAGE_SIZE)]
        assert frames.read_frames([page.frame])[0] is data

    def test_free_drops_contents(self):
        frames = FrameAllocator(reuse_freed=True)
        page = frames.alloc()
        frames.write(page.frame, 0, b"secret")
        frames.free(page.frame)
        fresh = frames.alloc()
        assert fresh.frame == page.frame
        assert frames.read(fresh.frame, 0, 6) == b"\x00" * 6


def _put_each(frames: FrameAllocator, listed: list[int]) -> None:
    """The scalar reference for ``put_many``: ``put`` each listed frame
    in order and free it when its count reaches zero."""
    pages = {frame: frames.page(frame) for frame in set(listed)}
    for frame in listed:
        if pages[frame].put() == 0:
            frames.free(frame)


@settings(max_examples=200, deadline=None)
@example(counts=[2, 1], picks=[0, 1, 0], reuse=True)
@given(
    counts=st.lists(st.integers(0, 3), min_size=1, max_size=10),
    picks=st.lists(st.integers(0, 9), max_size=24),
    reuse=st.booleans(),
)
def test_put_many_matches_the_scalar_path(counts, picks, reuse):
    """Map counts, free order and the frames later allocations get are
    those of one ``put`` per listed frame; duplicates free a frame at its
    last listed reference, and a put below zero raises at the same
    point."""
    outcomes = []
    for put in (FrameAllocator.put_many, _put_each):
        frames = FrameAllocator(reuse_freed=reuse)
        numbers = []
        for count in counts:
            page = frames.alloc()
            for _ in range(count):
                page.get()
            numbers.append(page.frame)
        listed = [numbers[i % len(numbers)] for i in picks]
        freed: list[int] = []
        real_free = frames.free

        def spy(frame, real_free=real_free, freed=freed):
            freed.append(frame)
            real_free(frame)

        frames.free = spy
        try:
            put(frames, listed)
            raised = None
        except RuntimeError as exc:
            raised = str(exc)
        left = {
            frame: frames.page(frame).mapcount
            for frame in numbers
            if frames.is_allocated(frame)
        }
        later = [frames.alloc().frame for _ in range(len(numbers))]
        outcomes.append((raised, freed, left, later))
    assert outcomes[0] == outcomes[1]


def test_put_many_below_zero_raises():
    frames = FrameAllocator()
    page = frames.alloc()
    page.get()
    with pytest.raises(RuntimeError, match="below zero"):
        frames.put_many([page.frame, page.frame])
    assert not frames.is_allocated(page.frame)
