"""Far-fault records and the GPU-side fault buffer (§3.2).

A far fault is raised when a GPU's local page table cannot translate a
VPN.  The GMMU places the fault in the GPU fault buffer, interrupts the
host over PCIe, and the UVM driver fetches, batches (up to 256 per
batch), and resolves faults against the centralized host page table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.engine import Event

__all__ = ["FarFault"]


@dataclass
class FarFault:
    """One outstanding far fault awaiting driver resolution."""

    gpu_id: int
    vpn: int
    is_write: bool
    raised_at: int
    #: fires with the new PTE word once the driver has resolved the fault
    #: and pushed the mapping back to the GPU.
    resolved: Event
    #: a GPU's refetch of a reply that went stale before it was installed:
    #: never migrates, so two GPUs cannot steal a page from each other forever.
    retry: bool = False
