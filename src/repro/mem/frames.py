"""Physical memory: frame allocation, contents, and failure injection.

Frames are identified by integer frame numbers.  Contents are materialized
lazily — only frames that are actually written get a page image — so
functional tests can map large sparse regions cheaply.

A page image is an immutable ``bytes`` object of exactly one page, so
frames may share one: the CoW copy (:meth:`FrameAllocator.copy_contents`)
hands the destination the source's image, and whole-page reads return
the stored image itself.  A write never mutates an image; it replaces
the frame's image with a new one (a whole-page ``bytes`` argument is
stored as it is), so no other frame and no earlier reader sees it.

Failure injection drives the §4.4 error-handling paths: a fault plan
(:mod:`repro.faults`) schedules ``oom`` faults against the
``mem.frames.alloc`` site, which makes the parent's PGD/PUD copy, the
child's PMD/PTE copy, or a proactive synchronization hit "out of
memory" mid-flight, and the fork engine must roll back.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from repro.analysis import hooks
from repro.errors import OutOfMemoryError
from repro.faults.plan import SITE_FRAME_ALLOC, FaultPlan
from repro.mem.page_struct import MapCountStore, PageStruct
from repro.obs.registry import MetricsRegistry
from repro.units import PAGE_SIZE

#: Contents of a never-written frame; shared, since bytes are immutable.
_ZERO_PAGE = bytes(PAGE_SIZE)


class SwapSpace:
    """System-wide swap: slot id -> page contents.

    Swap entries live in PTEs as non-present values carrying the slot id
    (PteFlags.SWAP).  Slots are write-once in the model; a slot shared by
    several processes (a page swapped out while CoW-shared) is swapped
    back in privately by each faulting process, which is semantically an
    eager CoW and preserves snapshot consistency.
    """

    def __init__(self) -> None:
        self._slots: dict[int, bytes] = {}
        self._next_slot = 1

    def store(self, contents: bytes) -> int:
        """Write a page to swap; returns the slot id."""
        slot = self._next_slot
        self._next_slot += 1
        self._slots[slot] = contents
        return slot

    def load(self, slot: int) -> bytes:
        """Read a swapped-out page."""
        return self._slots[slot]

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, slot: int) -> bool:
        return slot in self._slots


class FrameAllocator:
    """Allocates simulated physical frames and tracks their metadata.

    Parameters
    ----------
    capacity:
        Maximum number of simultaneously allocated frames, or ``None`` for
        unlimited.  Exceeding it raises :class:`OutOfMemoryError`, which is
        how the OOM-killer scenarios are staged.
    """

    def __init__(
        self, capacity: int | None = None, reuse_freed: bool = False
    ) -> None:
        self.capacity = capacity
        #: Hand freed frame numbers back out (real allocators do; the
        #: data-leakage demo of Table 1 needs it to show a stale TLB entry
        #: exposing another owner's data).
        self.reuse_freed = reuse_freed
        self._next_frame = 1  # frame 0 is reserved as "the zero page"
        self._free_list: list[int] = []
        self._pages: dict[int, PageStruct] = {}
        #: Map counts for every frame, shared with each PageStruct.
        self._mapcounts = MapCountStore()
        #: Page images (immutable, possibly shared between frames).
        self._contents: dict[int, bytes] = {}
        #: Chaos plan injecting at the ``mem.frames.alloc`` site.
        self._fault_plan: Optional[FaultPlan] = None
        #: Unified metrics; ``alloc_count``/``free_count`` are views.
        self.metrics = MetricsRegistry()
        self._alloc_count = self.metrics.counter("frames.alloc")
        self._free_count = self.metrics.counter("frames.free")
        self.metrics.gauge(
            "frames.allocated", supplier=lambda: len(self._pages)
        )
        #: System-wide swap space shared by every process on the machine.
        self.swap = SwapSpace()

    # -- legacy counter views ------------------------------------------------

    @property
    def alloc_count(self) -> int:
        """Allocations performed (view over ``frames.alloc``)."""
        return self._alloc_count.value

    @alloc_count.setter
    def alloc_count(self, value: int) -> None:
        self._alloc_count.value = int(value)

    @property
    def free_count(self) -> int:
        """Frees performed (view over ``frames.free``)."""
        return self._free_count.value

    @free_count.setter
    def free_count(self, value: int) -> None:
        self._free_count.value = int(value)

    # -- failure injection ---------------------------------------------------

    def attach_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install (or remove with ``None``) the chaos fault plan.

        Every subsequent allocation asks the plan's
        ``mem.frames.alloc`` site (detail ``purpose``, the allocation's
        tag); a firing ``oom`` spec raises :class:`OutOfMemoryError`.
        """
        self._fault_plan = plan

    # -- allocation ----------------------------------------------------------

    def alloc(self, purpose: str = "data") -> PageStruct:
        """Allocate a frame; ``purpose`` tags it (e.g. ``'pte-table'``)."""
        plan = self._fault_plan
        if (
            plan is not None
            and plan.fire(SITE_FRAME_ALLOC, purpose=purpose) is not None
        ):
            raise OutOfMemoryError(
                f"injected allocation failure (purpose={purpose})"
            )
        if self.capacity is not None and len(self._pages) >= self.capacity:
            raise OutOfMemoryError(
                f"frame allocator exhausted ({self.capacity} frames)"
            )
        counts = self._mapcounts
        if self.reuse_freed and self._free_list:
            frame = self._free_list.pop()
            counts.arr[frame] = 0
        else:
            frame = self._next_frame
            self._next_frame += 1
        # A fresh frame's count slot has never been written: it is zero.
        page = PageStruct(frame, tags={purpose}, counts=counts)
        self._pages[frame] = page
        self._alloc_count.value += 1
        return page

    def free(self, frame: int) -> None:
        """Release a frame and drop its contents."""
        page = self._pages.pop(frame, None)
        if page is None:
            raise KeyError(f"frame {frame} is not allocated")
        if page.locked:
            raise RuntimeError(f"freeing locked frame {frame}")
        self._contents.pop(frame, None)
        if self.reuse_freed:
            self._free_list.append(frame)
        self._free_count.value += 1

    def page(self, frame: int) -> PageStruct:
        """Metadata for an allocated frame."""
        return self._pages[frame]

    def get_many(self, frames) -> None:
        """Raise the mapcount of every listed frame by one.

        The bulk arm of :meth:`PageStruct.get` used by the vectorized
        clone/unshare paths: one ``np.add.at`` on the shared map-count
        array replaces 512 ``frames.page(f).get()`` round trips (pass a
        numpy index array to skip the list conversion).  Duplicate
        frame numbers are counted once per occurrence, like repeated
        ``get``.
        """
        if len(frames) == 0:
            return
        if hooks.ACCESS_HOOKS:
            for frame in frames:
                hooks.notify_access("atomic", "mapcount", int(frame))
        np.add.at(self._mapcounts.arr, frames, 1)

    def put_many(self, frames) -> int:
        """Drop one reference per listed frame, freeing at zero.

        Mirrors ``page.put() == 0 -> free(frame)`` per frame, in list
        order: a frame is freed at the position of its last listed
        reference, so the free order (and ``reuse_freed`` recycling)
        matches the scalar path exactly.  The counts drop in one numpy
        step; only frames that reach zero cost a Python call.  A list
        that would put a frame below zero, or a call made while access
        hooks are installed (they see every per-frame event), takes the
        per-frame path, which raises at the offending put (a free that
        raises does so after every count has dropped).  Returns how many
        references dropped.
        """
        frames = np.asarray(frames, dtype=np.intp)
        count = len(frames)
        if not count:
            return 0
        arr = self._mapcounts.arr
        # Reversed, so np.unique's first index is each frame's last
        # listed position.
        unique, last, puts = np.unique(
            frames[::-1], return_index=True, return_counts=True
        )
        left = arr[unique] - puts
        if hooks.ACCESS_HOOKS or (left < 0).any():
            return self._put_each(frames.tolist())
        arr[unique] = left
        dead = np.flatnonzero(left == 0)
        if len(dead):
            order = np.argsort(last[dead])[::-1]
            for frame in unique[dead[order]].tolist():
                self.free(frame)
        return count

    def _put_each(self, frames: list[int]) -> int:
        """:meth:`put_many` one frame at a time."""
        arr = self._mapcounts.arr
        notify = bool(hooks.ACCESS_HOOKS)
        for frame in frames:
            if notify:
                hooks.notify_access("atomic", "mapcount", frame)
            count = int(arr[frame]) - 1
            if count < 0:
                raise RuntimeError(
                    f"frame {frame}: put() below zero mapcount"
                )
            arr[frame] = count
            if count == 0:
                self.free(frame)
        return len(frames)

    def is_allocated(self, frame: int) -> bool:
        """Whether the frame is currently allocated."""
        return frame in self._pages

    @property
    def allocated(self) -> int:
        """Number of currently allocated frames."""
        return len(self._pages)

    def frames(self) -> Iterator[int]:
        """Iterate over currently allocated frame numbers."""
        return iter(self._pages)

    # -- contents ------------------------------------------------------------

    def read(self, frame: int, offset: int = 0, length: int | None = None) -> bytes:
        """Read bytes from a frame (zero-filled if never written).

        A whole-page read returns the stored image itself, not a copy.
        """
        if frame != 0 and frame not in self._pages:
            raise KeyError(f"frame {frame} is not allocated")
        if hooks.ACCESS_HOOKS and frame != 0:
            hooks.notify_access("read", "frame", frame)
        if length is None:
            length = PAGE_SIZE - offset
        self._check_span(offset, length)
        image = self._contents.get(frame, _ZERO_PAGE)
        if length == PAGE_SIZE:
            return image
        return image[offset : offset + length]

    def read_frames(self, frames: list[int]) -> list[bytes]:
        """Whole-page reads of many frames, as :meth:`read` per frame."""
        pages = self._pages
        get = self._contents.get
        notify = bool(hooks.ACCESS_HOOKS)
        if not notify and all(map(pages.__contains__, frames)):
            return list(map(get, frames, repeat(_ZERO_PAGE)))
        out: list[bytes] = []
        for frame in frames:
            if frame != 0:
                if frame not in pages:
                    raise KeyError(f"frame {frame} is not allocated")
                if notify:
                    hooks.notify_access("read", "frame", frame)
            out.append(get(frame, _ZERO_PAGE))
        return out

    def write(self, frame: int, offset: int, data: bytes) -> None:
        """Write bytes into a frame by replacing its page image.

        A whole-page ``bytes`` argument becomes the image as it is; any
        other whole-page buffer is copied once, and a partial write
        builds one new image around the old one's other bytes.
        """
        if frame == 0:
            raise ValueError("the zero page is immutable")
        if frame not in self._pages:
            raise KeyError(f"frame {frame} is not allocated")
        if hooks.ACCESS_HOOKS:
            hooks.notify_access("write", "frame", frame)
        length = len(data)
        self._check_span(offset, length)
        if length == PAGE_SIZE:
            self._contents[frame] = (
                data if type(data) is bytes else bytes(data)
            )
            return
        old = self._contents.get(frame, _ZERO_PAGE)
        self._contents[frame] = b"".join(
            (old[:offset], data, old[offset + length :])
        )

    def copy_contents(self, src: int, dst: int) -> None:
        """Copy a whole frame (the CoW page copy): share its image."""
        if hooks.ACCESS_HOOKS:
            if src != 0:
                hooks.notify_access("read", "frame", src)
            hooks.notify_access("write", "frame", dst)
        image = self._contents.get(src)
        if image is not None:
            self._contents[dst] = image
        else:
            self._contents.pop(dst, None)

    @staticmethod
    def _check_span(offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > PAGE_SIZE:
            raise ValueError(
                f"access [{offset}, {offset + length}) exceeds page size"
            )
