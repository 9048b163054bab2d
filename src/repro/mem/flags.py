"""Bit layout of simulated page-table entries.

A PTE is stored as a 64-bit integer (numpy ``uint64`` inside leaf tables):
the physical frame number lives above :data:`repro.units.PAGE_SHIFT`, the
low twelve bits carry architecture flags.  Only the flags the paper's
algorithms rely on are modelled:

``PRESENT``
    The entry maps a frame.  Cleared entries are "none present", the state
    the kernel uses while migrating a page (Table 1 / Table 2).
``RW``
    Hardware write permission.  Cleared on both parent and child PTEs after
    a fork so the first write triggers the CoW page fault.
``ACCESSED`` / ``DIRTY``
    Maintained on reads/writes; the working-set-size discussion in Appendix
    A is demonstrated through the accessed bit.
``SPECIAL``
    Catch-all software bit used by tests.

The ``PTE_*`` plain-int constants are what hot paths test and combine:
``enum.IntFlag`` arithmetic costs a Python-level call per operator, which
showed up as a measurable share of the RDB keyspace walk.  ``PteFlags``
carries the same values for repr and debugging.
"""

from __future__ import annotations

import enum

from repro.units import PAGE_SHIFT


PTE_PRESENT = 1 << 0
PTE_RW = 1 << 1
PTE_USER = 1 << 2
PTE_ACCESSED = 1 << 5
PTE_DIRTY = 1 << 6
PTE_SPECIAL = 1 << 9
PTE_SWAP = 1 << 10


class PteFlags(enum.IntFlag):
    """Flags stored in the low bits of a PTE."""

    NONE = 0
    PRESENT = PTE_PRESENT
    RW = PTE_RW
    USER = PTE_USER
    ACCESSED = PTE_ACCESSED
    DIRTY = PTE_DIRTY
    SPECIAL = PTE_SPECIAL
    #: Non-present entry holding a swap-slot id instead of a frame.
    SWAP = PTE_SWAP


#: Mask covering every flag bit (everything below the frame number).
FLAGS_MASK = (1 << PAGE_SHIFT) - 1


def make_pte(frame: int, flags: int) -> int:
    """Compose a PTE value from a frame number and flags."""
    if frame < 0:
        raise ValueError("frame number must be non-negative")
    return (frame << PAGE_SHIFT) | int(flags)


def pte_frame(pte: int) -> int:
    """Extract the physical frame number from a PTE value."""
    return int(pte) >> PAGE_SHIFT


def pte_flags(pte: int) -> PteFlags:
    """Extract the flag bits from a PTE value."""
    return PteFlags(int(pte) & FLAGS_MASK)


def pte_present(pte: int) -> bool:
    """True if the entry maps a frame."""
    return bool(int(pte) & PTE_PRESENT)


def pte_writable(pte: int) -> bool:
    """True if the entry allows hardware writes."""
    return bool(int(pte) & PTE_RW)


def pte_set_flags(pte: int, flags: int) -> int:
    """Return the PTE with ``flags`` added."""
    return int(pte) | int(flags)


def pte_clear_flags(pte: int, flags: int) -> int:
    """Return the PTE with ``flags`` removed."""
    return int(pte) & ~int(flags)
