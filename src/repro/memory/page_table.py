"""Radix page tables (GPU-local and host-side).

A page table maps VPN → 64-bit PTE word (:mod:`repro.memory.pte`).  The
radix structure matters to the simulation through :meth:`walk_levels`:
the number of sequential memory accesses a walker must perform, given
how deep the page-walk cache already reaches.

Invalidation deliberately *keeps* the stale word with its valid bit
cleared — lazy invalidation (§6.3) leaves stale entries in the table and
relies on the IRMB to mask them, so tests can observe the stale word.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from . import pte as pte_bits
from .address import AddressLayout

__all__ = ["PageTable"]


class PageTable:
    """A single-address-space radix page table."""

    def __init__(self, layout: AddressLayout, name: str = "pt") -> None:
        self.layout = layout
        self.name = name
        self._entries: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    def entry(self, vpn: int) -> Optional[int]:
        """Raw PTE word for ``vpn`` (valid or stale), or None if absent."""
        return self._entries.get(vpn)

    def set_entry(self, vpn: int, word: int) -> None:
        self._entries[vpn] = word

    def translate(self, vpn: int) -> Optional[int]:
        """The PTE word if present *and* valid, else None."""
        word = self._entries.get(vpn)
        if word is not None and pte_bits.is_valid(word):
            return word
        return None

    def invalidate(self, vpn: int) -> bool:
        """Clear the valid bit; returns True iff the entry was valid."""
        word = self._entries.get(vpn)
        if word is None:
            return False
        was_valid = pte_bits.is_valid(word)
        self._entries[vpn] = pte_bits.clear_valid(word)
        return was_valid

    def drop(self, vpn: int) -> None:
        """Remove the entry entirely (page freed)."""
        self._entries.pop(vpn, None)

    def valid_vpns(self) -> Iterator[int]:
        for vpn, word in self._entries.items():
            if pte_bits.is_valid(word):
                yield vpn

    # -- walk geometry ----------------------------------------------------

    def node_id(self, vpn: int, level: int) -> Tuple[int, int]:
        """Identity of the page-table node visited at ``level`` for ``vpn``."""
        return (level, self.layout.prefix(vpn, level))

    def walk_levels(self, vpn: int, cached_level: Optional[int] = None) -> int:
        """Memory accesses needed to walk ``vpn``.

        ``cached_level`` is the deepest level whose node pointer the
        page-walk cache supplied (1 = leaf table pointer); ``None`` means
        a cold walk from the root.
        """
        if cached_level is None:
            return self.layout.levels
        if not 1 <= cached_level <= self.layout.levels:
            raise ValueError("cached_level out of range")
        return cached_level
