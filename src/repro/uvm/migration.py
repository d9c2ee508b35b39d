"""Access-counter bookkeeping and migration-policy decisions (§3.3).

The three policies:

* **first-touch** — a page migrates from the CPU on its first GPU access
  and is then pinned; other GPUs get remote mappings forever.
* **on-touch** — every far fault that resolves to a remote page migrates
  the page to the faulting GPU (ping-pong under sharing).
* **access-counter** — NVIDIA's Volta+ scheme: each remote access bumps a
  per-(page, GPU) counter; reaching the threshold triggers migration and
  all counters for the page reset.
"""

from __future__ import annotations

from typing import Dict

from ..config import MigrationPolicy, UVMConfig
from ..sim.stats import StatsGroup
from ..sim.trace import NULL_TRACER

__all__ = ["AccessCounters", "should_migrate_on_fault"]


class AccessCounters:
    """Per-(page, GPU) remote-access counters with a migration threshold."""

    def __init__(self, config: UVMConfig, tracer=NULL_TRACER) -> None:
        self.threshold = config.effective_threshold
        self.stats = StatsGroup("access_counters")
        # Bound once: every remote data access increments.
        self._n_increments = self.stats.counter("increments")
        self._n_threshold_hits = self.stats.counter("threshold_hits")
        self._tracer = tracer
        self._counts: Dict[int, Dict[int, int]] = {}

    def note_remote_access(self, vpn: int, gpu_id: int) -> bool:
        """Increment; returns True when the threshold is reached (the
        caller should initiate a migration request)."""
        per_gpu = self._counts.setdefault(vpn, {})
        per_gpu[gpu_id] = per_gpu.get(gpu_id, 0) + 1
        self._n_increments.value += 1
        if per_gpu[gpu_id] == self.threshold:
            self._n_threshold_hits.value += 1
            if self._tracer.enabled:
                self._tracer.emit(
                    "mig.decide", "access_counters", vpn,
                    gpu=gpu_id, threshold=self.threshold,
                )
            return True
        return False

    def count(self, vpn: int, gpu_id: int) -> int:
        return self._counts.get(vpn, {}).get(gpu_id, 0)

    def reset_page(self, vpn: int) -> None:
        """Counters clear when the page migrates."""
        self._counts.pop(vpn, None)


def should_migrate_on_fault(policy: MigrationPolicy, resolves_to_remote: bool) -> bool:
    """Does this policy migrate at far-fault time (vs. remote-map)?"""
    if not resolves_to_remote:
        return False
    return policy is MigrationPolicy.ON_TOUCH
