"""Virtual memory areas and the Async-fork two-way pointer.

A VMA describes one contiguous region of a process's virtual address space.
The kernel merges adjacent compatible VMAs and splits them on partial
``munmap``/``mprotect`` — both behaviours are modelled because VMA-wide
modifications are one of the two checkpoint classes Async-fork must
intercept (§4.3).

Async-fork adds a single 8-byte field per VMA: the **two-way pointer**.  The
parent's VMA points at the child's corresponding VMA (and vice versa) while
the child is still copying that VMA's PMD/PTE entries; it also doubles as
the error-propagation channel of §4.4.  The pointer pair is guarded by a
lock because both processes may race to close the connection.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.analysis import hooks
from repro.units import PAGE_SIZE, page_align_down, page_align_up


class VmaProt(enum.IntFlag):
    """VMA protection bits (subset of mmap's PROT_*)."""

    NONE = 0
    READ = 1 << 0
    WRITE = 1 << 1
    EXEC = 1 << 2


class TwoWayPointer:
    """The shared connection object between a parent VMA and a child VMA.

    One instance is shared by both sides; ``close()`` severs it for both at
    once, which models "setting the pointers in the VMAs of both the parent
    and child to null".  ``error`` carries the §4.4 error code the parent
    stores for the child to observe before/after copying a VMA.
    """

    __slots__ = ("parent_vma", "child_vma", "error", "_locked")

    def __init__(self, parent_vma: "Vma", child_vma: "Vma") -> None:
        self.parent_vma: Optional[Vma] = parent_vma
        self.child_vma: Optional[Vma] = child_vma
        self.error: Optional[str] = None
        self._locked = False

    def lock(self) -> None:
        """Acquire the pointer lock (single-owner, non-reentrant)."""
        if self._locked:
            raise RuntimeError("two-way pointer lock is not reentrant")
        self._locked = True
        if hooks.LOCK_HOOKS:
            hooks.notify_lock("acquire", hooks.TWO_WAY_POINTER, id(self))

    def unlock(self) -> None:
        """Release the pointer lock."""
        if not self._locked:
            raise RuntimeError("unlocking an unlocked two-way pointer")
        self._locked = False
        if hooks.LOCK_HOOKS:
            hooks.notify_lock("release", hooks.TWO_WAY_POINTER, id(self))

    @property
    def locked(self) -> bool:
        """Whether somebody currently holds the pointer lock."""
        return self._locked

    @property
    def open(self) -> bool:
        """Whether the connection is still established."""
        return self.parent_vma is not None or self.child_vma is not None

    def close(self) -> None:
        """Sever the connection on both sides."""
        if self.parent_vma is not None:
            self.parent_vma.peer = None
            self.parent_vma = None
        if self.child_vma is not None:
            self.child_vma.peer = None
            self.child_vma = None


class Vma:
    """One virtual memory area."""

    __slots__ = ("start", "end", "_prot", "prot_bits", "peer", "tag")

    def __init__(
        self, start: int, end: int, prot: VmaProt, tag: str = "anon"
    ) -> None:
        if start % PAGE_SIZE or end % PAGE_SIZE:
            raise ValueError("VMA bounds must be page-aligned")
        if end <= start:
            raise ValueError("VMA must cover at least one page")
        self.start = start
        self.end = end
        self.prot = prot
        #: Async-fork two-way pointer; ``None`` when no copy is in flight.
        self.peer: Optional[TwoWayPointer] = None
        #: Free-form label ('heap', 'stack', ...) used in reports.
        self.tag = tag

    @property
    def prot(self) -> VmaProt:
        """Protection bits (``mprotect`` assigns them)."""
        return self._prot

    @prot.setter
    def prot(self, prot: VmaProt) -> None:
        self._prot = prot
        #: ``prot`` as a plain int: the fault path tests permissions
        #: without building a :class:`VmaProt` per access.
        self.prot_bits = int(prot)

    @property
    def size(self) -> int:
        """Length of the area in bytes."""
        return self.end - self.start

    @property
    def pages(self) -> int:
        """Number of pages covered."""
        return self.size // PAGE_SIZE

    def contains(self, vaddr: int) -> bool:
        """Whether ``vaddr`` falls inside this area."""
        return self.start <= vaddr < self.end

    def overlaps(self, start: int, end: int) -> bool:
        """Whether [start, end) intersects this area."""
        return self.start < end and start < self.end

    def can_merge_with(self, other: "Vma") -> bool:
        """Kernel-style merge test: adjacent, same protection and tag.

        VMAs with an open two-way pointer never merge — the connection
        identifies exactly one parent/child VMA pair, so Async-fork keeps
        such areas stable until the copy finishes.
        """
        return (
            self.end == other.start
            and self.prot == other.prot
            and self.tag == other.tag
            and self.peer is None
            and other.peer is None
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Vma({self.start:#x}-{self.end:#x}, prot={self.prot!r}, "
            f"tag={self.tag!r})"
        )


class VmaList:
    """Sorted, non-overlapping collection of VMAs for one address space."""

    def __init__(self) -> None:
        self._vmas: list[Vma] = []

    def __iter__(self):
        return iter(self._vmas)

    def __len__(self) -> int:
        return len(self._vmas)

    def find(self, vaddr: int) -> Optional[Vma]:
        """VMA containing ``vaddr``, or ``None``."""
        for vma in self._vmas:
            if vma.start <= vaddr < vma.end:
                return vma
        return None

    def overlapping(self, start: int, end: int) -> list[Vma]:
        """All VMAs intersecting [start, end)."""
        return [v for v in self._vmas if v.overlaps(start, end)]

    def insert(self, vma: Vma, merge: bool = True) -> Vma:
        """Insert a VMA, merging with compatible neighbours (vma_merge)."""
        for existing in self._vmas:
            if existing.overlaps(vma.start, vma.end):
                raise ValueError(f"{vma!r} overlaps {existing!r}")
        self._vmas.append(vma)
        self._vmas.sort(key=lambda v: v.start)
        if merge:
            vma = self._merge_around(vma)
        return vma

    def _merge_around(self, vma: Vma) -> Vma:
        idx = self._vmas.index(vma)
        # Merge with predecessor.
        if idx > 0 and self._vmas[idx - 1].can_merge_with(vma):
            prev = self._vmas[idx - 1]
            prev.end = vma.end
            del self._vmas[idx]
            vma = prev
            idx -= 1
        # Merge with successor.
        if idx + 1 < len(self._vmas) and vma.can_merge_with(
            self._vmas[idx + 1]
        ):
            vma.end = self._vmas[idx + 1].end
            del self._vmas[idx + 1]
        return vma

    def split(self, vma: Vma, at: int) -> tuple[Vma, Vma]:
        """split_vma(): cut ``vma`` at page-aligned address ``at``.

        The low half keeps the original object (and its two-way pointer, as
        in the kernel where the original ``vm_area_struct`` is reused); the
        high half is a fresh VMA.
        """
        at = page_align_down(at)
        if not (vma.start < at < vma.end):
            raise ValueError("split point must be strictly inside the VMA")
        high = Vma(at, vma.end, vma.prot, vma.tag)
        vma.end = at
        idx = self._vmas.index(vma)
        self._vmas.insert(idx + 1, high)
        return vma, high

    def remove(self, vma: Vma) -> None:
        """Detach a VMA (detach_vmas_to_be_unmapped)."""
        self._vmas.remove(vma)

    def total_pages(self) -> int:
        """Sum of pages over all areas."""
        return sum(v.pages for v in self._vmas)


def aligned_range(start: int, length: int) -> tuple[int, int]:
    """Page-align a (start, length) request to a half-open byte range."""
    lo = page_align_down(start)
    hi = page_align_up(start + length)
    return lo, hi
