"""In-PTE directory invalidation (§6.2).

The host-side page table's unused PTE bits 62–52 record which GPUs hold a
valid translation of each page.  With ``m`` usable bits, GPU *i* maps to
bit ``i % m`` (the paper's ``h(GPU_id) = GPU_id % m + 52``); aliasing can
only produce false positives (an invalidation sent to a GPU that holds
nothing), never false negatives, so correctness is preserved.

The directory is *software-managed*: the UVM driver sets a GPU's bit when
it resolves that GPU's far fault (a valid mapping is about to be
replayed) and clears all bits when a migration invalidates the mappings.
"""

from __future__ import annotations

from typing import List

from ..memory import pte as pte_bits
from ..memory.page_table import PageTable
from ..sim.stats import StatsGroup
from ..sim.trace import NULL_TRACER

__all__ = ["InPTEDirectory"]


class InPTEDirectory:
    """Residency directory stored in the host page table's unused bits."""

    def __init__(
        self,
        host_page_table: PageTable,
        num_gpus: int,
        num_bits: int = 11,
        tracer=NULL_TRACER,
    ) -> None:
        if not 1 <= num_bits <= pte_bits.DIRECTORY_BITS_MAX:
            raise ValueError(
                f"directory bits must be in 1..{pte_bits.DIRECTORY_BITS_MAX}"
            )
        self.host_page_table = host_page_table
        self.num_gpus = num_gpus
        self.num_bits = num_bits
        self.name = "in_pte_directory"
        self.stats = StatsGroup(self.name)
        # Bound once: every fault resolution and migration sets a bit.
        self._n_bits_set = self.stats.counter("bits_set")
        self._tracer = tracer

    #: in-PTE lookups ride the host page-table walk: no extra latency (§6.2).
    lookup_latency = 0

    def record_access(self, vpn: int, gpu_id: int) -> None:
        """Set ``gpu_id``'s access bit: it is about to hold a valid mapping."""
        word = self.host_page_table.entry(vpn)
        if word is None:
            raise KeyError(f"host PTE for VPN {vpn:#x} does not exist")
        self.host_page_table.set_entry(
            vpn, pte_bits.set_directory_bit(word, gpu_id, self.num_bits)
        )
        self._n_bits_set.value += 1
        if self._tracer.enabled:
            self._tracer.emit("dir.set", self.name, vpn, gpu=gpu_id)

    def holders(self, vpn: int) -> List[int]:
        """GPUs whose access bit is set (includes hash false positives)."""
        word = self.host_page_table.entry(vpn)
        if word is None:
            return []
        bits = pte_bits.directory_bits(word, self.num_bits)
        result = [g for g in range(self.num_gpus) if bits & (1 << (g % self.num_bits))]
        self.stats.counter("lookups").add()
        if self._tracer.enabled:
            self._tracer.emit("dir.lookup", self.name, vpn, holders=result)
        return result

    def peek_holders(self, vpn: int) -> List[int]:
        """Like :meth:`holders` but side-effect free — no stats, no trace
        — so the invariant auditor can inspect without perturbing runs."""
        word = self.host_page_table.entry(vpn)
        if word is None:
            return []
        bits = pte_bits.directory_bits(word, self.num_bits)
        return [g for g in range(self.num_gpus) if bits & (1 << (g % self.num_bits))]

    def clear(self, vpn: int) -> None:
        """Clear every access bit (mappings are being invalidated)."""
        word = self.host_page_table.entry(vpn)
        if word is None:
            return
        self.host_page_table.set_entry(vpn, pte_bits.clear_directory_bits(word, self.num_bits))
        self.stats.counter("clears").add()
        if self._tracer.enabled:
            self._tracer.emit("dir.clear", self.name, vpn)
