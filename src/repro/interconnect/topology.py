"""System topology: all-to-all NVLink between GPUs, PCIe to the host.

Table 2: 300 GB/s NVLink-v2 between GPUs, 32 GB/s PCIe-v4 to the CPU.
Each GPU owns an NVLink egress port and a PCIe up/down pair; remote data
and invalidation traffic therefore contend per GPU, which is what lets
the in-PTE directory's filtered shootdowns reduce interconnect
congestion (§7.1).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List

from ..config import InterconnectConfig
from ..sim.engine import Engine
from .link import Link

__all__ = ["Interconnect", "link_names", "topology_fingerprint"]


def link_names(num_gpus: int) -> List[str]:
    """Canonical names of every link in an ``num_gpus``-GPU topology, in
    construction order — the identity a failure trace targets."""
    names = [f"nvlink{g}.out" for g in range(num_gpus)]
    for g in range(num_gpus):
        names.append(f"pcie{g}.up")
        names.append(f"pcie{g}.down")
    return names


def topology_fingerprint(num_gpus: int) -> str:
    """Stable digest identifying the link topology a failure trace was
    generated for.  The fingerprint is embedded in trace headers and in
    :class:`~repro.config.ChaosTraceSpec`; the loader rejects a trace
    whose fingerprint does not match the simulated system, so a trace
    naming ``pcie6.down`` can never be silently replayed against a
    4-GPU machine."""
    canonical = json.dumps(
        {"topology": "all-to-all-nvlink+pcie", "num_gpus": num_gpus,
         "links": link_names(num_gpus)},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class Interconnect:
    """All links of one multi-GPU system."""

    def __init__(self, engine: Engine, config: InterconnectConfig, num_gpus: int) -> None:
        self.engine = engine
        self.config = config
        self.num_gpus = num_gpus
        #: optional chaos overlay (ScheduledFaultInjector).  When set,
        #: every transfer asks it for an episode-dependent extra delay —
        #: a downed link stalls traffic to the end of its outage.
        self.chaos = None
        #: every GPU-to-GPU route ``(src, dst)``: one membership test
        #: validates both endpoints of a transfer.
        self._gpu_routes = frozenset(
            (src, dst) for src in range(num_gpus) for dst in range(num_gpus) if src != dst
        )
        self._nvlink_out: Dict[int, Link] = {
            g: Link(
                engine,
                config.nvlink_bandwidth_gbps,
                config.nvlink_latency,
                config.clock_ghz,
                name=f"nvlink{g}.out",
            )
            for g in range(num_gpus)
        }
        self._pcie_up: Dict[int, Link] = {}
        self._pcie_down: Dict[int, Link] = {}
        for g in range(num_gpus):
            self._pcie_up[g] = Link(
                engine, config.pcie_bandwidth_gbps, config.pcie_latency,
                config.clock_ghz, name=f"pcie{g}.up",
            )
            self._pcie_down[g] = Link(
                engine, config.pcie_bandwidth_gbps, config.pcie_latency,
                config.clock_ghz, name=f"pcie{g}.down",
            )

    def _route_error(self, *gpus: int) -> ValueError:
        """Why a route through ``gpus`` is not in the topology."""
        for gpu in gpus:
            if gpu not in self._pcie_up:
                return ValueError(f"no such GPU: {gpu}")
        return ValueError("gpu_to_gpu requires distinct endpoints")

    def fingerprint(self) -> str:
        return topology_fingerprint(self.num_gpus)

    def link(self, name: str) -> Link:
        """Look up a link by its canonical name (``nvlink2.out`` ...)."""
        for links in (self._nvlink_out, self._pcie_up, self._pcie_down):
            for l in links.values():
                if l.name == name:
                    return l
        raise KeyError(f"no such link: {name}")

    def gpu_to_gpu(self, src: int, dst: int, num_bytes: int, fn: Callable[..., None],
                   *args: Any, extra_delay: int = 0) -> None:
        """Transfer between two GPUs over the source's NVLink port;
        ``fn(*args)`` runs when it arrives."""
        if (src, dst) not in self._gpu_routes:
            raise self._route_error(src, dst)
        link = self._nvlink_out[src]
        if self.chaos is not None:
            extra_delay += self.chaos.link_transfer_delay(link)
        link.transfer(num_bytes, fn, *args, extra_delay=extra_delay)

    def gpu_to_host(self, gpu: int, num_bytes: int, fn: Callable[..., None],
                    *args: Any, extra_delay: int = 0) -> None:
        if gpu not in self._pcie_up:
            raise self._route_error(gpu)
        link = self._pcie_up[gpu]
        if self.chaos is not None:
            extra_delay += self.chaos.link_transfer_delay(link)
        link.transfer(num_bytes, fn, *args, extra_delay=extra_delay)

    def host_to_gpu(self, gpu: int, num_bytes: int, fn: Callable[..., None],
                    *args: Any, extra_delay: int = 0) -> None:
        if gpu not in self._pcie_down:
            raise self._route_error(gpu)
        link = self._pcie_down[gpu]
        if self.chaos is not None:
            extra_delay += self.chaos.link_transfer_delay(link)
        link.transfer(num_bytes, fn, *args, extra_delay=extra_delay)

    def nvlink_bytes(self) -> int:
        return sum(l.stats.counter("bytes").value for l in self._nvlink_out.values())

    def pcie_bytes(self) -> int:
        return sum(
            l.stats.counter("bytes").value
            for links in (self._pcie_up, self._pcie_down)
            for l in links.values()
        )
