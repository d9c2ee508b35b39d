"""IDYLL-InMem: the VM-Table / VM-Cache directory (§6.4).

When the PTE's unused bits are reserved for other purposes, the
residency directory moves to an in-memory **VM-Table** (one 64-bit entry
per page: 45-bit VPN + 19 GPU access bits) fronted by a hardware
**VM-Cache** (64 entries, 4-way, write-allocate, write-back, LRU).

Directory semantics match :class:`repro.core.directory.InPTEDirectory`;
systems with more than 19 GPUs hash ``gpu % 19`` onto the access bits,
so aliasing again yields only false positives.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from ..config import VMCacheConfig
from ..sim.stats import StatsGroup

__all__ = ["VMTableDirectory", "VM_TABLE_ACCESS_BITS"]

#: access bits per VM-Table entry (§6.4).
VM_TABLE_ACCESS_BITS = 19


class VMTableDirectory:
    """In-memory residency directory with a write-back cache in front."""

    def __init__(self, num_gpus: int, config: VMCacheConfig) -> None:
        self.num_gpus = num_gpus
        self.config = config
        self.stats = StatsGroup("vm_directory")
        #: backing store: VPN → access-bit word.
        self._table: Dict[int, int] = {}
        #: VM-Cache: one LRU OrderedDict per set, VPN → (bits, dirty).
        self._sets: List["OrderedDict[int, list]"] = [
            OrderedDict() for _ in range(config.sets)
        ]

    def _set_for(self, vpn: int) -> "OrderedDict[int, list]":
        return self._sets[vpn % self.config.sets]

    def _bit_of(self, gpu_id: int) -> int:
        return 1 << (gpu_id % VM_TABLE_ACCESS_BITS)

    # -- cache plumbing ------------------------------------------------------

    def _load(self, vpn: int) -> list:
        """Bring ``vpn``'s entry into the VM-Cache; returns [bits, dirty]."""
        entry_set = self._set_for(vpn)
        entry = entry_set.get(vpn)
        if entry is not None:
            entry_set.move_to_end(vpn)
            self.stats.counter("cache_hits").add()
            return entry
        self.stats.counter("cache_misses").add()
        if vpn in self._table:
            self.stats.counter("table_hits").add()
            bits = self._table[vpn]
        else:
            # First-ever access to this page: register a fresh entry (§6.4).
            self.stats.counter("table_misses").add()
            bits = 0
        entry = [bits, False]
        if len(entry_set) >= self.config.associativity:
            old_vpn, (old_bits, dirty) = entry_set.popitem(last=False)
            if dirty:
                self._table[old_vpn] = old_bits
                self.stats.counter("writebacks").add()
        entry_set[vpn] = entry
        return entry

    def lookup_latency_for(self, vpn: int) -> int:
        """Latency of the directory probe that runs in parallel with the
        host page-table walk: cache hit = cache latency, miss = +memory."""
        in_cache = vpn in self._set_for(vpn)
        if in_cache:
            return self.config.lookup_latency
        return self.config.lookup_latency + self.config.memory_access_latency

    # -- directory API (mirrors InPTEDirectory) --------------------------------

    @property
    def lookup_latency(self) -> int:
        # Nominal value; callers wanting the precise per-VPN cost use
        # :meth:`lookup_latency_for` *before* the access mutates the cache.
        return self.config.lookup_latency

    def record_access(self, vpn: int, gpu_id: int) -> None:
        entry = self._load(vpn)
        entry[0] |= self._bit_of(gpu_id)
        entry[1] = True
        self.stats.counter("bits_set").add()

    def holders(self, vpn: int) -> List[int]:
        entry = self._load(vpn)
        bits = entry[0]
        self.stats.counter("lookups").add()
        return [g for g in range(self.num_gpus) if bits & self._bit_of(g)]

    def clear(self, vpn: int) -> None:
        entry = self._load(vpn)
        entry[0] = 0
        entry[1] = True
        self.stats.counter("clears").add()

    def peek_holders(self, vpn: int) -> List[int]:
        """Side-effect-free holder read: consults the VM-Cache entry if
        present, else the backing table — without allocating a cache
        entry, moving LRU state, or touching stats (invariant auditing
        must not perturb the simulated cache)."""
        entry = self._set_for(vpn).get(vpn)
        bits = entry[0] if entry is not None else self._table.get(vpn, 0)
        return [g for g in range(self.num_gpus) if bits & self._bit_of(g)]

    # -- introspection -----------------------------------------------------------

    def cache_hit_rate(self) -> float:
        hits = self.stats.counter("cache_hits").value
        misses = self.stats.counter("cache_misses").value
        total = hits + misses
        return hits / total if total else 0.0

    def table_entries(self) -> int:
        """Entries materialised in the backing VM-Table (excluding the
        cache-resident dirty ones not yet written back)."""
        return len(self._table)
