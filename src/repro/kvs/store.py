"""The key-value store proper.

Keys live in a Python dict (modelling Redis's main hash table, whose
footprint is dominated by the values for the 1 KiB-value workloads of the
paper); values live on simulated pages via :class:`JemallocArena`, so every
SET is a real write to simulated memory — dirtying pages, triggering CoW
after a fork, and (under Async-fork) proactive synchronizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import KvsError
from repro.kvs.allocator import JemallocArena
from repro.mem.address_space import AddressSpace, table_run_bounds
from repro.units import PAGE_SIZE

_PAGE_MASK = ~(PAGE_SIZE - 1)


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
        :meth:`~repro.mem.address_space.AddressSpace.read_pages`, and the
        walk streams: a page's bytes are dropped after the last key that
        uses it, so the cache holds about one table-run of pages rather
        than the whole keyspace.
        """
        items = list((self._table if table is None else table).items())
        # Plan: pages in first-touch order, and the last key using each.
        order: list[int] = []
        last_use: dict[int, int] = {}
        for i, (_, ref) in enumerate(items):
            page = ref.vaddr & _PAGE_MASK
            end = ref.vaddr + ref.length
            while page < end:
                if page not in last_use:
                    order.append(page)
                last_use[page] = i
                page += PAGE_SIZE
        bounds = table_run_bounds(order)
        runs = (order[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
        cache: dict[int, bytes] = {}

        def page_bytes(page: int, i: int) -> bytes:
            blob = cache.get(page)
            while blob is None:
                run = next(runs)
                cache.update(zip(run, mm.read_pages(run)))
                blob = cache.get(page)
            if last_use[page] == i:
                del cache[page]
            return blob

        for i, (key, ref) in enumerate(items):
            here = ref.vaddr
            end = here + ref.length
            page = here & _PAGE_MASK
            if here < end <= page + PAGE_SIZE:  # the common one-page value
                yield key, page_bytes(page, i)[here - page : end - page]
                continue
            parts: list[bytes] = []
            while here < end:
                page = here & _PAGE_MASK
                stop = min(end, page + PAGE_SIZE)
                parts.append(page_bytes(page, i)[here - page : stop - page])
                here = stop
            yield key, b"".join(parts)

    def table_snapshot(self) -> dict[bytes, ValueRef]:
        """Shallow copy of the key table, as inherited by a forked child."""
        return dict(self._table)

    def flat_size(self) -> int:
        """Total bytes of stored values."""
        return sum(ref.length for ref in self._table.values())

