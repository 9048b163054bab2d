"""Per-frame metadata, the simulated ``struct page``.

Every physical frame handed out by :class:`repro.mem.frames.FrameAllocator`
carries one of these.  The fields mirror the parts of the kernel structure
the paper's algorithms touch:

* ``mapcount`` — how many PTEs map the frame.  Data-page copy-on-write uses
  it to decide between copying and reusing in place, exactly like the
  kernel's ``page_mapcount`` check.
* ``share_count`` — ODF's extra per-PTE-table reference counter (the paper
  notes ODF stores it in unused ``struct page`` bits).  Async-fork
  deliberately does *not* use such a counter (§4.2, "we do not adopt the
  design using the struct page").
* a ``trylock``/``unlock`` pair — both the parent's proactive
  synchronization and the child copier take the PTE-table page lock before
  copying so they never copy the same table twice (§4.2).
"""

from __future__ import annotations

from repro.analysis import hooks


class MapCountStore:
    """System-wide map counts, one ``int64`` per frame number.

    Keeping every frame's count in one numpy array lets the bulk clone
    paths raise 512 counts with a single ``np.add.at`` instead of 512
    attribute round trips; :class:`PageStruct` proxies its ``mapcount``
    into the array.  The wrapper (rather than a bare array) survives
    capacity growth: holders always read ``store.arr``.
    """

    __slots__ = ("arr",)

    def __init__(self, capacity: int = 1024) -> None:
        import numpy as np

        self.arr = np.zeros(capacity, dtype=np.int64)

    def ensure(self, frame: int) -> None:
        """Grow the array so ``frame`` is a valid index."""
        if frame >= len(self.arr):
            import numpy as np

            grown = np.zeros(
                max(frame + 1, 2 * len(self.arr)), dtype=np.int64
            )
            grown[: len(self.arr)] = self.arr
            self.arr = grown


class PageStruct:
    """Metadata for one physical frame."""

    __slots__ = ("frame", "share_count", "locked", "tags", "_counts", "_local")

    def __init__(
        self,
        frame: int,
        mapcount: int = 0,
        share_count: int = 0,
        locked: bool = False,
        tags: set | None = None,
        counts: MapCountStore | None = None,
    ) -> None:
        self.frame = frame
        #: ODF's share counter for frames used as PTE tables.
        self.share_count = share_count
        #: True while somebody holds the page lock.
        self.locked = locked
        #: Free-form tags used by tests and by the reclaim machinery.
        self.tags = tags if tags is not None else set()
        #: Shared map-count array (allocator-owned) or ``None`` for a
        #: standalone page, which then counts locally.  A shared slot is
        #: written only for a non-zero ``mapcount``: the allocator hands
        #: out frames whose slot is zero.
        self._counts = counts
        self._local = mapcount if counts is None else 0
        if counts is not None:
            counts.ensure(frame)
            if mapcount:
                counts.arr[frame] = mapcount

    @property
    def mapcount(self) -> int:
        """Number of PTEs currently mapping this frame."""
        counts = self._counts
        if counts is None:
            return self._local
        return int(counts.arr[self.frame])

    @mapcount.setter
    def mapcount(self, value: int) -> None:
        counts = self._counts
        if counts is None:
            self._local = value
        else:
            counts.arr[self.frame] = value

    def __repr__(self) -> str:
        return (
            f"PageStruct(frame={self.frame}, mapcount={self.mapcount}, "
            f"share_count={self.share_count}, locked={self.locked}, "
            f"tags={self.tags})"
        )

    def trylock(self) -> bool:
        """Take the page lock if it is free; return whether we got it.

        This mirrors ``trylock_page()``: the loser backs off instead of
        sleeping, which is how the parent and child avoid copying the PTEs
        of the same PMD entry at the same time.
        """
        if self.locked:
            return False
        self.locked = True
        if hooks.LOCK_HOOKS:
            hooks.notify_lock("acquire", hooks.PAGE_LOCK, self.frame)
        return True

    def unlock(self) -> None:
        """Release the page lock."""
        if not self.locked:
            raise RuntimeError(f"frame {self.frame}: unlock of unlocked page")
        self.locked = False
        if hooks.LOCK_HOOKS:
            hooks.notify_lock("release", hooks.PAGE_LOCK, self.frame)

    def get(self) -> None:
        """Increment the map count (a new PTE references the frame)."""
        if hooks.ACCESS_HOOKS:
            hooks.notify_access("atomic", "mapcount", self.frame)
        self.mapcount += 1

    def put(self) -> int:
        """Decrement the map count and return the new value."""
        if self.mapcount <= 0:
            raise RuntimeError(
                f"frame {self.frame}: put() below zero mapcount"
            )
        if hooks.ACCESS_HOOKS:
            hooks.notify_access("atomic", "mapcount", self.frame)
        self.mapcount -= 1
        return self.mapcount
