"""Copy-on-write helpers shared by the fork engines.

``clone_pte_table_into`` is the one primitive every engine ultimately
performs — default fork for every leaf table during the call, ODF on the
first write fault to a shared table, Async-fork in the child copier and in
the parent's proactive synchronization.  It copies the 512 entries,
write-protects both sides (arming the data-page CoW), and raises the map
counts of every referenced frame.

Both helpers run at whole-table granularity (DESIGN.md §10): entries
move as one numpy copy, the referenced frame numbers are extracted with a
single shift, and only the per-frame ``struct page`` bookkeeping remains
a (tight, list-driven) Python loop.
"""

from __future__ import annotations

from repro.mem.frames import FrameAllocator
from repro.mem.pte_table import PteTable
from repro.obs import tracer as obs

def clone_pte_table_into(
    src: PteTable,
    dst: PteTable,
    frames: FrameAllocator,
    write_protect: bool = True,
) -> int:
    """Copy all entries of ``src`` into ``dst``; returns entries copied.

    With ``write_protect`` (the CoW arm), the RW bit is cleared in *both*
    tables so the first post-fork write by either process faults —
    protecting the source first means the copy carries the cleared bits
    and only one sweep is paid.
    """
    if write_protect:
        src.write_protect_all()
    dst.copy_entries_from(src)
    frames.get_many(src.referencing_frames_array())
    if obs.ACTIVE:
        obs.emit_instant(
            "pte.clone",
            obs.CAT_MEM,
            entries=src.present_count,
            write_protect=write_protect,
        )
    return src.present_count


def drop_pte_table_references(
    leaf: PteTable, frames: FrameAllocator
) -> int:
    """Release every frame reference a leaf table holds (rollback/exit)."""
    return frames.put_many(leaf.referencing_frames_array())

