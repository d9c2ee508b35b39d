"""Per-GPU physical memory: a frame allocator plus a flat latency model.

Capacity is 4 GB per GPU (Table 2).  Frames are identified by physical
page number (PPN); each GPU's PPNs are drawn from a disjoint range so a
PPN alone identifies both the owning GPU and the frame, mirroring a
global physical address space partitioned across devices.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .pte import PPN_MASK, PPN_SHIFT

__all__ = ["PhysicalMemory", "MemoryExhausted", "pte_owner"]


class MemoryExhausted(RuntimeError):
    """Raised when a GPU has no free frames left."""


class PhysicalMemory:
    """Frame allocator for one GPU's device memory."""

    #: PPN range reserved per GPU (must exceed any realistic frame count).
    PPN_STRIDE = 1 << 24

    def __init__(self, gpu_id: int, capacity_bytes: int, page_size: int) -> None:
        self.gpu_id = gpu_id
        self.page_size = page_size
        self.capacity_frames = capacity_bytes // page_size
        if self.capacity_frames > self.PPN_STRIDE:
            raise ValueError("capacity exceeds the per-GPU PPN range")
        self._base_ppn = gpu_id * self.PPN_STRIDE
        self._next = 0
        self._free: List[int] = []
        #: PPN → VPN currently resident (for accounting / tests).
        self.resident: Dict[int, int] = {}

    @classmethod
    def owner_of(cls, ppn: int) -> int:
        """Which GPU's memory a PPN belongs to."""
        return ppn // cls.PPN_STRIDE

    @property
    def frames_in_use(self) -> int:
        return len(self.resident)

    @property
    def frames_free(self) -> int:
        return self.capacity_frames - self.frames_in_use

    def allocate(self, vpn: int) -> int:
        """Allocate one frame for ``vpn``; returns its global PPN."""
        if self._free:
            ppn = self._free.pop()
        elif self._next < self.capacity_frames:
            ppn = self._base_ppn + self._next
            self._next += 1
        else:
            raise MemoryExhausted(f"GPU{self.gpu_id} out of frames")
        self.resident[ppn] = vpn
        return ppn

    def free(self, ppn: int) -> None:
        if ppn not in self.resident:
            raise KeyError(f"PPN {ppn:#x} is not resident on GPU{self.gpu_id}")
        del self.resident[ppn]
        self._free.append(ppn)

    def vpn_of(self, ppn: int) -> Optional[int]:
        return self.resident.get(ppn)


def pte_owner(word: int) -> int:
    """Which GPU's memory the page a PTE word maps lives in:
    ``PhysicalMemory.owner_of(pte.ppn(word))`` in one call."""
    return ((word & PPN_MASK) >> PPN_SHIFT) // PhysicalMemory.PPN_STRIDE
