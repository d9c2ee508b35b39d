"""Far-fault records and the GPU-side fault buffer (§3.2).

A far fault is raised when a GPU's local page table cannot translate a
VPN.  The GMMU places the fault in the GPU fault buffer, interrupts the
host over PCIe, and the UVM driver fetches, batches (up to 256 per
batch), and resolves faults against the centralized host page table.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["FarFault"]


class FarFault:
    """One outstanding far fault awaiting driver resolution."""

    __slots__ = ("gpu_id", "vpn", "is_write", "raised_at", "fn", "args", "retry")

    def __init__(self, gpu_id: int, vpn: int, is_write: bool, raised_at: int,
                 fn: Callable[..., None], args: tuple = (), retry: bool = False) -> None:
        self.gpu_id = gpu_id
        self.vpn = vpn
        self.is_write = is_write
        self.raised_at = raised_at
        #: the faulting GPU's continuation: ``fn(*args, word)`` runs with
        #: the new PTE word once the driver's reply has reached the GPU.
        self.fn = fn
        self.args = args
        #: a GPU's refetch of a reply that went stale before it was
        #: installed: never migrates, so two GPUs cannot steal a page from
        #: each other forever.
        self.retry = retry
