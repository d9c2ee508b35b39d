"""Set-associative TLBs with LRU replacement (Table 2 geometries).

The same class models the per-CU L1 TLB (32 entries, fully associative,
1-cycle) and the GPU-shared L2 TLB (512 entries, 16-way, 10-cycle).
Entries map VPN → PTE word; shootdowns remove entries immediately, which
is the behaviour both the baseline and IDYLL keep (§6.3: "upon receiving
an invalidation request, the TLB is immediately invalidated").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..config import TLBConfig
from ..sim.stats import StatsGroup
from ..sim.trace import NULL_TRACER

__all__ = ["TLB"]


class TLB:
    """One TLB level: ``sets`` LRU sets of ``associativity`` ways."""

    __slots__ = (
        "config", "name", "stats", "_tracer", "_sets", "_n_sets",
        "_hits", "_misses", "_evictions", "_shootdowns",
    )

    def __init__(self, config: TLBConfig, name: str = "tlb", tracer=NULL_TRACER) -> None:
        self.config = config
        self.name = name
        self.stats = StatsGroup(name)
        self._tracer = tracer
        # Bound once: ``TLBConfig.sets`` is a property, and every lookup,
        # fill and shootdown picks a set.
        self._n_sets = config.sets
        self._sets: List["OrderedDict[int, int]"] = [
            OrderedDict() for _ in range(self._n_sets)
        ]
        # Counters pre-bound once: lookup() runs per memory access, so the
        # per-call StatsGroup dict lookup is worth removing.
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evictions = self.stats.counter("evictions")
        self._shootdowns = self.stats.counter("shootdowns")

    def _set_for(self, vpn: int) -> "OrderedDict[int, int]":
        return self._sets[vpn % self._n_sets]

    @property
    def lookup_latency(self) -> int:
        return self.config.lookup_latency

    def lookup(self, vpn: int) -> Optional[int]:
        """PTE word on hit (refreshing LRU), None on miss."""
        tracer = self._tracer
        entry_set = self._sets[vpn % self._n_sets]
        word = entry_set.get(vpn)
        if word is None:
            self._misses.add()
            if tracer.enabled:
                tracer.emit("tlb.miss", self.name, vpn)
            return None
        entry_set.move_to_end(vpn)
        self._hits.add()
        if tracer.enabled:
            tracer.emit("tlb.hit", self.name, vpn)
        return word

    def probe(self, vpn: int) -> bool:
        """Presence check without touching LRU or stats."""
        return vpn in self._set_for(vpn)

    def peek(self, vpn: int) -> Optional[int]:
        """Entry lookup without touching LRU or stats (simulator-internal)."""
        return self._sets[vpn % self._n_sets].get(vpn)

    def insert(self, vpn: int, word: int) -> None:
        tracer = self._tracer
        entry_set = self._sets[vpn % self._n_sets]
        if vpn in entry_set:
            entry_set[vpn] = word
            entry_set.move_to_end(vpn)
            return
        if len(entry_set) >= self.config.associativity:
            victim, _ = entry_set.popitem(last=False)
            self._evictions.add()
            if tracer.enabled:
                tracer.emit("tlb.evict", self.name, victim)
        entry_set[vpn] = word
        if tracer.enabled:
            tracer.emit("tlb.fill", self.name, vpn)

    def shootdown(self, vpn: int) -> bool:
        """Invalidate one translation; True iff it was present."""
        entry_set = self._set_for(vpn)
        if vpn in entry_set:
            del entry_set[vpn]
            self._shootdowns.add()
            tracer = self._tracer
            if tracer.enabled:
                tracer.emit("tlb.shootdown", self.name, vpn)
            return True
        return False

    def flush(self) -> None:
        for entry_set in self._sets:
            entry_set.clear()

    def resident(self):
        """Iterate ``(vpn, word)`` over every cached translation without
        touching LRU or stats (invariant auditing)."""
        for entry_set in self._sets:
            yield from entry_set.items()

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def snapshot(self) -> dict:
        """Plain-data state for checkpointing (LRU order preserved)."""
        return {
            "sets": [list(s.items()) for s in self._sets],
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        for entry_set, items in zip(self._sets, state["sets"]):
            entry_set.clear()
            for vpn, word in items:
                entry_set[vpn] = word
        self.stats.restore(state["stats"])

    def hit_rate(self) -> float:
        hits = self.stats.counter("hits").value
        misses = self.stats.counter("misses").value
        total = hits + misses
        return hits / total if total else 0.0
