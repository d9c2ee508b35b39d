"""Invalidation Request Merging Buffer (§6.3).

The IRMB buffers incoming PTE-invalidation requests instead of walking
the page table for each.  Requests whose VPNs share all bits above the
leaf (L1) index merge into one entry: a 36-bit *base* (the L5–L2 VA
bits) plus up to 16 nine-bit *offsets* (L1 indices).  Merged entries are
written back to the page table lazily — in a batch that shares the same
upper-level page-walk-cache entries.

Geometry (default 32 bases × 16 offsets = 720 bytes) comes from
:class:`repro.config.IRMBConfig`.

Eviction rules (paper, §6.3):

* base array full → evict the **LRU merged entry** (recently-touched
  bases likely merge more neighbours soon) and propagate its offsets.
* offset slots of the matching base full → **evict all offsets of that
  entry** (propagate them) and insert the new offset into the now-empty
  entry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Set, Tuple

from ..config import IRMBConfig
from ..memory.address import AddressLayout
from ..sim.stats import StatsGroup
from ..sim.trace import NULL_TRACER

__all__ = ["IRMB"]


class IRMB:
    """One GPU's invalidation request merging buffer."""

    __slots__ = (
        "config", "layout", "name", "stats", "_tracer", "_entries",
        "_n_lookup_hits", "_n_lookup_misses", "_n_merged", "_n_new",
    )

    def __init__(
        self,
        config: IRMBConfig,
        layout: AddressLayout,
        name: str = "irmb",
        tracer=NULL_TRACER,
    ) -> None:
        self.config = config
        self.layout = layout
        self.name = name
        self.stats = StatsGroup(name)
        # Bound once: every invalidation inserts and every demand L2 miss
        # probes.
        self._n_lookup_hits = self.stats.counter("lookup_hits")
        self._n_lookup_misses = self.stats.counter("lookup_misses")
        self._n_merged = self.stats.counter("merged_inserts")
        self._n_new = self.stats.counter("new_entry_inserts")
        self._tracer = tracer
        #: base → set of offsets, in LRU order (least-recent first).
        self._entries: "OrderedDict[int, Set[int]]" = OrderedDict()

    def __len__(self) -> int:
        """Number of occupied merged entries (bases)."""
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def pending_vpns(self) -> List[int]:
        """Every VPN currently buffered (diagnostics/tests)."""
        out = []
        for base, offsets in self._entries.items():
            for off in offsets:
                out.append(self._vpn(base, off))
        return out

    def _split(self, vpn: int) -> Tuple[int, int]:
        if not self.config.merge_enabled:
            # Ablation: tag on the full VPN so nothing ever merges.
            return vpn, 0
        return self.layout.irmb_base(vpn), self.layout.irmb_offset(vpn)

    def _vpn(self, base: int, offset: int) -> int:
        if not self.config.merge_enabled:
            return base
        return (base << 9) | offset

    # -- insertion (invalidation request arrival, §6.3 "a") ----------------

    def insert(self, vpn: int) -> List[int]:
        """Buffer an invalidation for ``vpn``.

        Returns the list of VPNs whose buffered invalidations must now be
        propagated to the page table (empty when the request merged or a
        free entry existed; non-empty on an eviction).
        """
        tracer = self._tracer
        traced = tracer.enabled
        base, offset = self._split(vpn)
        evicted: List[int] = []
        entry = self._entries.get(base)
        if entry is not None:
            self._entries.move_to_end(base)
            if offset in entry:
                self.stats.counter("duplicate_inserts").add()
                if traced:
                    tracer.emit("irmb.insert", self.name, vpn, kind="duplicate")
                return evicted
            if len(entry) >= self.config.offsets_per_base:
                # Offset slots full: flush this entry's offsets, keep the base.
                evicted = [self._vpn(base, o) for o in sorted(entry)]
                entry.clear()
                self.stats.counter("offset_evictions").add()
                if traced:
                    tracer.emit(
                        "irmb.evict", self.name, kind="offset", base=base, count=len(evicted)
                    )
            entry.add(offset)
            self._n_merged.value += 1
            if traced:
                tracer.emit("irmb.insert", self.name, vpn, kind="merge", base=base)
            return evicted

        if len(self._entries) >= self.config.bases:
            # Base array full: evict the LRU merged entry wholesale.
            lru_base, lru_offsets = self._entries.popitem(last=False)
            evicted = [self._vpn(lru_base, o) for o in sorted(lru_offsets)]
            self.stats.counter("base_evictions").add()
            if traced:
                tracer.emit(
                    "irmb.evict", self.name, kind="base", base=lru_base, count=len(evicted)
                )
        self._entries[base] = {offset}
        self._n_new.value += 1
        if traced:
            tracer.emit("irmb.insert", self.name, vpn, kind="new", base=base)
        return evicted

    # -- lookup (parallel with the L2 TLB, §6.3 "B") ------------------------

    def lookup(self, vpn: int) -> bool:
        """Is an invalidation for ``vpn`` pending?  (No LRU update: lookups
        are probes by demand misses, not invalidation traffic.)"""
        base, offset = self._split(vpn)
        entry = self._entries.get(base)
        if entry is not None and offset in entry:
            self._n_lookup_hits.value += 1
            return True
        self._n_lookup_misses.value += 1
        return False

    def peek(self, vpn: int) -> bool:
        """Statistics-free :meth:`lookup` — the fast path's eligibility
        probe must not perturb the counters the event path would record
        (a replayed L1 hit never probes the IRMB architecturally)."""
        base, offset = self._split(vpn)
        entry = self._entries.get(base)
        return entry is not None and offset in entry

    # -- removal (a new mapping arrived for this VPN, §6.3) -----------------

    def remove(self, vpn: int) -> bool:
        """Drop the pending invalidation for ``vpn`` (its PTE is about to
        be overwritten by a fresh mapping, so no walk is needed)."""
        base, offset = self._split(vpn)
        entry = self._entries.get(base)
        if entry is None or offset not in entry:
            return False
        entry.discard(offset)
        if not entry:
            del self._entries[base]
        self.stats.counter("removed_by_new_mapping").add()
        if self._tracer.enabled:
            self._tracer.emit("irmb.remove", self.name, vpn)
        return True

    # -- lazy writeback (walker idle, §6.3) ----------------------------------

    def pop_lru_entry(self) -> Optional[List[int]]:
        """Evict the LRU merged entry for an idle-time writeback; returns
        its VPNs (sharing one base, hence one leaf page-table node)."""
        if not self._entries:
            return None
        base, offsets = self._entries.popitem(last=False)
        self.stats.counter("idle_writebacks").add()
        if self._tracer.enabled:
            self._tracer.emit("irmb.writeback", self.name, base=base, count=len(offsets))
        return [self._vpn(base, o) for o in sorted(offsets)]
