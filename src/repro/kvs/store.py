"""The key-value store proper.

Keys live in a Python dict (modelling Redis's main hash table, whose
footprint is dominated by the values for the 1 KiB-value workloads of the
paper); values live on simulated pages via :class:`JemallocArena`, so every
SET is a real write to simulated memory — dirtying pages, triggering CoW
after a fork, and (under Async-fork) proactive synchronizations.

A forked child reads the keyspace it inherited (a copy of the key
table) out of its own memory image, which CoW keeps at the fork-time
state, through one walk, :class:`PageWalk`: BGSAVE keeps what it reads
by reference, BGREWRITEAOF and the failover AOF rebuild take (key,
value) pairs from it.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import getitem
from typing import Iterator, NamedTuple, Optional

import numpy as np

from repro.errors import KvsError
from repro.kvs.allocator import JemallocArena
from repro.mem.address_space import AddressSpace
from repro.units import PAGE_SHIFT, PAGE_SIZE, PTE_TABLE_SPAN

_PAGE_MASK = ~(PAGE_SIZE - 1)
_TABLE_SHIFT = PTE_TABLE_SPAN.bit_length() - 1


class ValueRef(NamedTuple):
    """Location of one stored value inside the process heap.

    A tuple, so a walk reads a run of them into numpy in one flat pass
    (:func:`_extents`).
    """

    vaddr: int
    length: int


def _extents(refs: list[ValueRef]) -> tuple[np.ndarray, np.ndarray]:
    """The values' addresses and lengths, as two int64 arrays."""
    flat = np.fromiter(chain.from_iterable(refs), np.int64, 2 * len(refs))
    return flat[0::2], flat[1::2]


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

    def table_snapshot(self) -> dict[bytes, ValueRef]:
        """Shallow copy of the key table, as inherited by a forked child."""
        return dict(self._table)


def _touches(
    vaddr: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Every page touch of a key walk, in walk order, and its key.

    Key ``i`` (value at ``vaddr[i]``, ``length[i]`` bytes) touches the
    pages holding its value's bytes; an empty value touches none.
    Returns the touched pages and each touch's key index, or ``None``
    for the index in the common case of one touch per key.
    """
    first = vaddr & _PAGE_MASK
    if not len(vaddr) or (
        length.min() > 0 and (vaddr - first + length).max() <= PAGE_SIZE
    ):  # the common case: every value on one page
        return first, None
    last = (vaddr + length - 1) & _PAGE_MASK
    span = np.where(length > 0, ((last - first) >> PAGE_SHIFT) + 1, 0)
    key_start = np.cumsum(span) - span
    owner = np.repeat(np.arange(len(vaddr)), span)
    step = np.arange(len(owner)) - key_start[owner]
    return first[owner] + (step << PAGE_SHIFT), owner


#: Entries a walk plans at once before it knows their sizes.
_PLAN_BLOCK = 256
#: Payload bytes :meth:`PageWalk.items` takes per step.
_ITEMS_BUDGET = 64 * 1024


class PageWalk:
    """A forked child's keyspace walk: the one way anything reads a
    key table (``table``) out of an address space (``mm``).

    Values pack many to a page, so the walk reads each backing page
    once, in the order the key walk first touches it, so faults, TLB
    and PTE state and trace events are those of a value-by-value walk.
    Consecutive first touches inside one PTE table are read together
    through :meth:`~repro.mem.address_space.AddressSpace.read_pages`, at
    most ``chunk_pages`` per call when given (``read_pages`` makes any
    split observably the same).  The walk copies no value:
    :meth:`take` returns the next entries' keys and value extents, and
    :attr:`pages` keeps every page image read.  Page images are
    immutable, so those extents stay the fork-time bytes whatever the
    parent writes later, and a snapshot file cuts the values out only
    when it is read (:func:`page_values`).  An image the parent has not
    rewritten is the one the frame allocator holds, so keeping it costs
    nothing.  :meth:`items` copies the values out as it goes, for the
    readers that want (key, value) pairs (BGREWRITEAOF, the failover
    AOF rebuild).

    The plan is built as the walk goes, a block of entries at a time:
    a call plans its own entries, plus as many later ones as it takes to
    know where its last read run ends, so no call plans the whole
    keyspace unless it takes all of it.
    """

    def __init__(
        self,
        mm: AddressSpace,
        table: dict[bytes, ValueRef],
        chunk_pages: Optional[int] = None,
    ) -> None:
        self._mm = mm
        self._keys = list(table)
        self._refs = list(table.values())
        self._chunk = chunk_pages
        count = len(self._keys)
        self._starts = np.empty(count, np.int64)
        self._lengths = np.empty(count, np.int64)
        #: Per planned entry: the payload bytes (8 + key + value each)
        #: of it and every entry before it, and how many pages those
        #: entries touch.
        self._ends = np.empty(count, np.int64)
        self._needs = np.empty(count, np.int64)
        self._planned = 0
        self._taken = 0
        #: Planned pages in first-touch order, and the same as a set.
        self._order: list[int] = []
        self._seen: set[int] = set()
        #: How many pages of the order have been read.
        self._read = 0
        #: Every page image read so far, by page address.
        self.pages: dict[int, bytes] = {}

    @property
    def done(self) -> bool:
        """Whether :meth:`take` has returned every entry."""
        return self._taken == len(self._keys)

    def take(
        self, budget: Optional[int] = None
    ) -> tuple[list[bytes], np.ndarray, np.ndarray, int]:
        """The next entries that fit in ``budget`` payload bytes (at
        least one while any is left; all that are left when ``budget``
        is ``None``), after reading every page they touch.

        Returns their keys, their values' addresses, their values'
        lengths and their payload bytes (8 + key + value each); the
        values are the bytes at those extents of :attr:`pages`.
        """
        start, count = self._taken, len(self._keys)
        if budget is None:
            self._plan(count - self._planned)
            stop = count
        elif start == count:
            stop = count
        else:
            limit = self._end(start) + budget
            # Plan about a read run's worth of bytes past the slice, so
            # the run that ends the slice's reads usually needs no
            # second planning step.
            want = limit + (self._chunk or 0) * PAGE_SIZE
            while self._planned < count and self._end(self._planned) <= want:
                planned = self._planned
                reach = self._end(planned)
                self._plan(
                    max(64, (want - reach) * planned // reach + 2)
                    if planned
                    else _PLAN_BLOCK
                )
            ends = self._ends[: self._planned]
            stop = int(np.searchsorted(ends, limit, side="right"))
            stop = min(count, max(stop, start + 1))
        if stop > start:
            self._read_until(int(self._needs[stop - 1]))
        self._taken = stop
        return (
            self._keys[start:stop],
            self._starts[start:stop],
            self._lengths[start:stop],
            self._end(stop) - self._end(start),
        )

    def finish(self) -> tuple[list[bytes], np.ndarray, np.ndarray, int]:
        """Take every entry left; returns all of the walk's entries, as
        :meth:`take` returns the ones it takes."""
        self.take()
        count = len(self._keys)
        return self._keys, self._starts, self._lengths, self._end(count)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """The entries left, as (key, value) pairs, taken
        ``_ITEMS_BUDGET`` payload bytes at a time; each value is copied
        out of its page image as it is yielded."""
        while not self.done:
            keys, starts, lengths, _ = self.take(_ITEMS_BUDGET)
            values = page_values(starts, lengths, self.pages)
            yield from zip(keys, map(bytes, values))

    def _end(self, entries: int) -> int:
        """Payload bytes of the first ``entries`` entries (planned)."""
        return int(self._ends[entries - 1]) if entries else 0

    def _plan(self, count: int) -> None:
        """Plan the next ``count`` entries: their extents, payload ends,
        and the pages they touch first."""
        lo = self._planned
        hi = min(len(self._keys), lo + count)
        if hi == lo:
            return
        starts, lengths = _extents(self._refs[lo:hi])
        sizes = np.fromiter(map(len, self._keys[lo:hi]), np.int64, hi - lo)
        sizes += lengths
        sizes += 8
        sizes[0] += self._end(lo)
        np.cumsum(sizes, out=self._ends[lo:hi])
        self._starts[lo:hi] = starts
        self._lengths[lo:hi] = lengths
        # The block's first touch of each page, in walk order, minus the
        # pages an earlier block touched first.
        touches, owner = _touches(starts, lengths)
        heads = np.unique(touches, return_index=True)[1]
        heads.sort()
        new = touches[heads].tolist()
        seen = self._seen
        if not seen.isdisjoint(new):
            fresh = [page not in seen for page in new]
            heads = heads[fresh]
            new = list(compress(new, fresh))
        if owner is not None:
            heads = owner[heads]
        needs = self._needs[lo:hi]
        np.cumsum(np.bincount(heads, minlength=hi - lo), out=needs)
        needs += len(self._order)
        self._order += new
        seen.update(new)
        self._planned = hi

    def _run_end(self, lo: int) -> Optional[int]:
        """End of the read run that starts at order position ``lo``:
        the table run's end, at most ``chunk_pages`` on; ``None`` while
        the plan does not reach far enough to tell."""
        order = self._order
        chunk = self._chunk
        reach = len(order) if chunk is None else min(len(order), lo + chunk)
        table = order[lo] >> _TABLE_SHIFT
        hi = lo + 1
        while hi < reach and order[hi] >> _TABLE_SHIFT == table:
            hi += 1
        if (
            hi < reach
            or (chunk is not None and hi == lo + chunk)
            or self._planned == len(self._keys)
        ):
            return hi
        return None

    def _read_until(self, pages: int) -> None:
        """Read whole runs until the first ``pages`` of the order are in."""
        order = self._order
        while self._read < pages:
            lo = self._read
            hi = self._run_end(lo)
            while hi is None:
                self._plan(_PLAN_BLOCK)
                hi = self._run_end(lo)
            run = order[lo:hi]
            self.pages.update(zip(run, self._mm.read_pages(run)))
            self._read = hi


def page_values(
    starts: np.ndarray, lengths: np.ndarray, pages: dict[int, bytes]
) -> list[bytes | memoryview]:
    """Cut values out of page images: value ``i`` is the ``lengths[i]``
    bytes at address ``starts[i]``, from ``pages`` (page address ->
    image, as :attr:`PageWalk.pages`).

    A value inside one page is a memoryview of its image, not a copy:
    ``b"".join`` copies it once, into the payload.
    """
    first = starts & _PAGE_MASK
    offset = starts - first
    end = offset + lengths
    values: list[bytes | memoryview] = list(
        map(
            getitem,
            map(memoryview, map(pages.get, first.tolist(), repeat(b""))),
            map(slice, offset.tolist(), end.tolist()),
        )
    )
    # Empty values may sit on pages nobody read; values that straddle
    # pages are joined from each page's part.
    for i in np.flatnonzero((end > PAGE_SIZE) | (lengths == 0)).tolist():
        here, stop = int(starts[i]), int(starts[i] + lengths[i])
        parts = []
        while here < stop:
            page = here & _PAGE_MASK
            cut = min(stop, page + PAGE_SIZE)
            parts.append(pages[page][here - page : cut - page])
            here = cut
        values[i] = b"".join(parts)
    return values
