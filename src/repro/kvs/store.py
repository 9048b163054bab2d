"""The key-value store proper.

Keys live in a Python dict (modelling Redis's main hash table, whose
footprint is dominated by the values for the 1 KiB-value workloads of the
paper); values live on simulated pages via :class:`JemallocArena`, so every
SET is a real write to simulated memory — dirtying pages, triggering CoW
after a fork, and (under Async-fork) proactive synchronizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import KvsError
from repro.kvs.allocator import JemallocArena
from repro.mem.address_space import AddressSpace, table_run_bounds
from repro.units import PAGE_SHIFT, PAGE_SIZE

_PAGE_MASK = ~(PAGE_SIZE - 1)
_vaddr, _length = attrgetter("vaddr"), attrgetter("length")


@dataclass(frozen=True)
class ValueRef:
    """Location of one stored value inside the process heap."""

    vaddr: int
    length: int


class KvStore:
    """String key -> byte-string value store over simulated memory."""

    def __init__(self, mm: AddressSpace, arena: Optional[JemallocArena] = None):
        self.mm = mm
        self.arena = arena if arena is not None else JemallocArena(mm)
        self._table: dict[bytes, ValueRef] = {}
        self.dirty_since_save = 0

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: bytes) -> bool:
        return self._normalize(key) in self._table

    @staticmethod
    def _normalize(key) -> bytes:
        if isinstance(key, str):
            return key.encode()
        if isinstance(key, bytes):
            return key
        raise KvsError(f"keys must be str or bytes, not {type(key).__name__}")

    # ------------------------------------------------------------------

    def set(self, key, value: bytes) -> None:
        """SET: store a value, updating in place when the class fits.

        In-place update is the common case for the fixed-size-value
        benchmarks and is what repeatedly dirties the same pages (the
        Gaussian-pattern effect of Figure 12).
        """
        key = self._normalize(key)
        if isinstance(value, str):
            value = value.encode()
        old = self._table.get(key)
        if old is not None and self.arena.usable_size(old.vaddr) >= len(value):
            self.mm.write_memory(old.vaddr, value)
            self._table[key] = ValueRef(old.vaddr, len(value))
        else:
            vaddr = self.arena.zmalloc(max(1, len(value)))
            self.mm.write_memory(vaddr, value)
            if old is not None:
                self.arena.zfree(old.vaddr)
            self._table[key] = ValueRef(vaddr, len(value))
        self.dirty_since_save += 1

    def get(self, key) -> Optional[bytes]:
        """GET: read a value (``None`` when absent)."""
        ref = self._table.get(self._normalize(key))
        if ref is None:
            return None
        return self.mm.read_memory(ref.vaddr, ref.length)

    def delete(self, key) -> bool:
        """DEL: drop a key; returns whether it existed."""
        ref = self._table.pop(self._normalize(key), None)
        if ref is None:
            return False
        self.arena.zfree(ref.vaddr)
        self.dirty_since_save += 1
        return True

    def keys(self) -> Iterator[bytes]:
        """Iterate over keys (unspecified order, like SCAN)."""
        return iter(self._table)

    def items_from(
        self,
        mm: AddressSpace,
        table: Optional[dict[bytes, ValueRef]] = None,
        chunk_pages: Optional[int] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Read every (key, value) pair through *another* address space.

        This is how the forked child serializes the snapshot: it walks the
        key table it inherited (``table``; the live one by default) and
        reads the values out of its own memory image, which CoW keeps at
        the fork-time state.  It is the one keyspace walk: BGSAVE,
        BGREWRITEAOF and the failover AOF rebuild all use it.

        Values pack many to a page, so each backing page is read once, in
        the order the key walk first touches it, so faults happen in the
        same order as a value-by-value walk.  Consecutive first touches
        inside one PTE table are read together through
        :meth:`~repro.mem.address_space.AddressSpace.read_pages`, at most
        ``chunk_pages`` per call when given (a sliced BGSAVE reads only
        what its slice needs; ``read_pages`` makes any split observably
        the same), and the walk streams: a page's bytes are dropped after
        the last key that uses it, so the cache holds about one table-run
        of pages rather than the whole keyspace.

        The plan (pages in first-touch order, each page's last touch) is
        built with numpy when this is called, not on the first item.
        """
        return self.sized_items_from(mm, table, chunk_pages)[1]

    def sized_items_from(
        self,
        mm: AddressSpace,
        table: Optional[dict[bytes, ValueRef]] = None,
        chunk_pages: Optional[int] = None,
    ) -> tuple[np.ndarray, Iterator[tuple[bytes, bytes]]]:
        """:meth:`items_from`, plus every value's length in walk order.

        The lengths come from the one pass over the key table that plans
        the walk, before any value is read; a sliced BGSAVE sizes its
        slices with them.
        """
        if table is None:
            table = self._table
        count = len(table)
        keys = list(table)
        vaddr = np.fromiter(map(_vaddr, table.values()), np.int64, count)
        length = np.fromiter(map(_length, table.values()), np.int64, count)
        order, is_last, key_start = _plan_pages(vaddr, length)
        bounds = table_run_bounds(order)
        if chunk_pages is not None:
            bounds = [
                cut
                for lo, hi in zip(bounds, bounds[1:])
                for cut in range(lo, hi, chunk_pages)
            ] + [len(order)]
        runs = (order[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
        walk = _walk(
            keys, vaddr.tolist(), length.tolist(), key_start, is_last, runs, mm
        )
        return length, walk

    def table_snapshot(self) -> dict[bytes, ValueRef]:
        """Shallow copy of the key table, as inherited by a forked child."""
        return dict(self._table)

    def flat_size(self) -> int:
        """Total bytes of stored values."""
        return sum(ref.length for ref in self._table.values())


def _plan_pages(
    vaddr: np.ndarray, length: np.ndarray
) -> tuple[list[int], list[bool], list[int]]:
    """The walk's page plan, built with numpy.

    Key ``i`` (value at ``vaddr[i]``, ``length[i]`` bytes) touches the
    pages holding its value's bytes; an empty value touches none.
    Returns the pages in first-touch order; for every touch, in walk
    order, whether it is the page's last; and the index of each key's
    first touch.
    """
    n = len(vaddr)
    first = vaddr & _PAGE_MASK
    last = (vaddr + length - 1) & _PAGE_MASK
    span = np.where(length > 0, ((last - first) >> PAGE_SHIFT) + 1, 0)
    if (span == 1).all():  # the common case: every value on one page
        touches, key_start = first, range(n)
    else:
        key_start = np.cumsum(span) - span
        owner = np.repeat(np.arange(n), span)
        step = np.arange(len(owner)) - key_start[owner]
        touches = first[owner] + (step << PAGE_SHIFT)
        key_start = key_start.tolist()
    # Group equal pages, keeping walk order inside each group: a group's
    # head is the page's first touch, its tail the last.
    by_page = np.argsort(touches, kind="stable")
    sorted_pages = touches[by_page]
    heads = np.flatnonzero(np.diff(sorted_pages, prepend=-1))
    tails = np.append(heads, len(touches))[1:] - 1
    is_last = np.zeros(len(touches), dtype=bool)
    is_last[by_page[tails]] = True
    order = touches[np.sort(by_page[heads])]
    return order.tolist(), is_last.tolist(), key_start


def _walk(
    keys: list[bytes],
    vaddrs: list[int],
    lengths: list[int],
    key_start: Iterable[int],
    is_last: list[bool],
    runs: Iterator[list[int]],
    mm: AddressSpace,
) -> Iterator[tuple[bytes, bytes]]:
    """The streaming half of :meth:`KvStore.items_from`."""
    cache: dict[int, bytes] = {}

    def page_bytes(page: int, touch: int) -> bytes:
        blob = cache.get(page)
        while blob is None:
            run = next(runs)
            cache.update(zip(run, mm.read_pages(run)))
            blob = cache.get(page)
        if is_last[touch]:
            del cache[page]
        return blob

    for key, here, length, touch in zip(keys, vaddrs, lengths, key_start):
        end = here + length
        page = here & _PAGE_MASK
        if here < end <= page + PAGE_SIZE:  # the common one-page value
            yield key, page_bytes(page, touch)[here - page : end - page]
            continue
        parts: list[bytes] = []
        while here < end:
            page = here & _PAGE_MASK
            stop = min(end, page + PAGE_SIZE)
            parts.append(page_bytes(page, touch)[here - page : stop - page])
            here = stop
            touch += 1
        yield key, b"".join(parts)
