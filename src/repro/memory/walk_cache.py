"""Page-walk cache (PWC): an LRU cache over page-table node pointers.

A tag names one page-table node: holding the pointer to the node at
``level`` lets a walk start there instead of at the root, so a walk's
cost in memory accesses equals the deepest cached level.  The 128 entries are shared by all walker threads (Table 2) and,
crucially for the paper, by *invalidation* walks — which is how the
baseline's invalidation storms thrash demand walks (§5.2), and why
IRMB-batched invalidations with a common base amortise to one upper-level
fill plus leaf accesses (§6.3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from .address import BITS_PER_LEVEL, AddressLayout
from ..sim.stats import StatsGroup

__all__ = ["PageWalkCache"]


class PageWalkCache:
    """Fully-associative LRU cache of page-table node pointers."""

    def __init__(self, entries: int, layout: AddressLayout, name: str = "pwc") -> None:
        if entries < 1:
            raise ValueError("PWC must have at least one entry")
        self.entries = entries
        self.layout = layout
        self.stats = StatsGroup(name)
        self._tags: "OrderedDict[int, None]" = OrderedDict()
        # Bound once: every walk probes and fills, level by level.
        # ``(level, mask)`` pairs, leaf-most first.  The tag of the node
        # at ``level`` is ``vpn & mask | level``: the VPN with the bits
        # below that node (``layout.prefix(vpn, level)``) cleared and the
        # level written into them, so it is one int per node and level.
        self._probe_order = tuple(
            (level, ~((1 << (BITS_PER_LEVEL * level)) - 1))
            for level in range(1, layout.levels)
        )
        self._fill_order = self._probe_order[::-1]
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evictions = self.stats.counter("evictions")

    def __len__(self) -> int:
        return len(self._tags)

    def deepest_cached_level(self, vpn: int) -> Optional[int]:
        """Deepest (closest-to-leaf) level whose node pointer is cached.

        Returns 1 for a leaf-table hit, ``layout.levels - 1`` for a
        root-child hit, or None on a complete miss.  Probing refreshes
        LRU state of the hit tag only.
        """
        tags = self._tags
        for level, mask in self._probe_order:
            tag = vpn & mask | level
            if tag in tags:
                tags.move_to_end(tag)
                self._hits.value += 1
                return level
        self._misses.value += 1
        return None

    def fill(self, vpn: int, down_to_level: int = 1) -> None:
        """Install node pointers learned by a walk, levels ``levels-1``
        down to ``down_to_level``."""
        tags = self._tags
        for level, mask in self._fill_order:
            if level < down_to_level:
                break
            tag = vpn & mask | level
            if tag in tags:
                tags.move_to_end(tag)
                continue
            if len(tags) >= self.entries:
                tags.popitem(last=False)
                self._evictions.value += 1
            tags[tag] = None

    def invalidate_all(self) -> None:
        self._tags.clear()

    def hit_rate(self) -> float:
        hits = self._hits.value
        misses = self._misses.value
        total = hits + misses
        return hits / total if total else 0.0
