"""Page replication comparator (§7.4).

Replication duplicates a page into every reading GPU's local memory so
reads never cross the interconnect and never migrate (hence almost no
invalidations for read-shared data).  A *write* collapses all replicas
back to a single page: every replica holder's PTE must be invalidated
(a shootdown walk each), the replicas freed, and the write applied to
the surviving home copy.  That is why the paper's write-intensive
applications (IM, C2D) still lose to IDYLL under replication.

Oversubscription is not modelled, matching the paper's §7.4 setup.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.stats import StatsGroup

__all__ = ["ReplicaDirectory"]


class ReplicaDirectory:
    """Tracks which GPUs hold read replicas of each page."""

    def __init__(self) -> None:
        self.stats = StatsGroup("replication")
        #: VPN → {gpu_id: replica PPN}
        self._replicas: Dict[int, Dict[int, int]] = {}

    def add_replica(self, vpn: int, gpu_id: int, ppn: int) -> None:
        self._replicas.setdefault(vpn, {})[gpu_id] = ppn
        self.stats.counter("replicas_created").add()

    def holders(self, vpn: int) -> List[int]:
        return list(self._replicas.get(vpn, {}))

    def replica_ppn(self, vpn: int, gpu_id: int) -> int:
        return self._replicas[vpn][gpu_id]

    def has_replica(self, vpn: int, gpu_id: int) -> bool:
        return gpu_id in self._replicas.get(vpn, {})

    def is_replicated(self, vpn: int) -> bool:
        return bool(self._replicas.get(vpn))

    def collapse(self, vpn: int) -> Dict[int, int]:
        """Remove all replicas of ``vpn``; returns {gpu: ppn} so the caller
        can free the frames and invalidate the PTEs."""
        replicas = self._replicas.pop(vpn, {})
        if replicas:
            self.stats.counter("collapses").add()
            self.stats.counter("replicas_destroyed").add(len(replicas))
        return replicas
