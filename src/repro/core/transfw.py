"""Trans-FW comparator (§7.5, reimplemented from Li et al., HPCA 2023).

Trans-FW short-circuits far faults: each GPU keeps a small table of
*fingerprints* recording which remote GPU's page table likely holds a
valid translation for a VPN.  On a far fault, a fingerprint hit forwards
the translation request to that remote GPU over NVLink instead of
raising a host interrupt — far cheaper than the PCIe + driver-batching
path.  The structure is false-positive-prone (it stores hashed
fingerprints, not full tags): a false positive costs a wasted remote
lookup before falling back to the host.

Matching the paper's comparison setup, the table holds 443 fingerprints
(720 bytes, equal to the IRMB budget).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..config import TransFWConfig
from ..sim.rng import stream
from ..sim.stats import StatsGroup

__all__ = ["TransFW"]


class TransFW:
    """One GPU's fingerprint-based remote-forwarding table (PRT)."""

    def __init__(self, gpu_id: int, num_gpus: int, config: TransFWConfig, seed: int = 7) -> None:
        self.gpu_id = gpu_id
        self.num_gpus = num_gpus
        self.config = config
        self.stats = StatsGroup(f"transfw{gpu_id}")
        self._rng = stream(seed, f"transfw{gpu_id}")
        #: fingerprint store: VPN → believed owner GPU, LRU-ordered.
        self._table: "OrderedDict[int, int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._table)

    def learn(self, vpn: int, owner_gpu: int) -> None:
        """Record that ``owner_gpu``'s page table maps ``vpn``."""
        if owner_gpu == self.gpu_id:
            return
        if vpn in self._table:
            self._table.move_to_end(vpn)
        elif len(self._table) >= self.config.fingerprints:
            self._table.popitem(last=False)
            self.stats.counter("evictions").add()
        self._table[vpn] = owner_gpu
        self.stats.counter("learned").add()

    def forget(self, vpn: int) -> None:
        """Drop a fingerprint (its page migrated away)."""
        self._table.pop(vpn, None)

    def probe(self, vpn: int) -> Optional[int]:
        """GPU believed to hold a valid translation, or None.

        A miss may still return a bogus GPU with the configured
        false-positive probability (fingerprint aliasing).
        """
        owner = self._table.get(vpn)
        if owner is not None:
            self._table.move_to_end(vpn)
            self.stats.counter("hits").add()
            return owner
        if self.num_gpus > 1 and self._rng.random() < self.config.false_positive_rate:
            self.stats.counter("false_positives").add()
            candidates = [g for g in range(self.num_gpus) if g != self.gpu_id]
            return self._rng.choice(candidates)
        self.stats.counter("misses").add()
        return None
