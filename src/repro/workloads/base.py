"""Workload representation and trace analysis.

A workload is a set of per-GPU, per-lane traces of
``(gap, vpn, is_write)`` records: ``gap`` is the number of non-memory
instructions (≈ cycles at CPI 1) the lane spends before issuing the
access — the knob through which an application's compute intensity and
therefore its latency-hiding ability enters the model.

Trace-level analyses that do not need simulation (the Fig. 4 sharing
distribution, write fractions, footprints) are methods here.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

__all__ = ["Access", "TraceBuffer", "Workload", "partition_pages"]

#: one trace record: (gap_instructions, vpn, is_write)
Access = Tuple[int, int, bool]


class TraceBuffer:
    """Columnar storage for one lane's trace.

    Three parallel arrays — ``gaps`` (compute-gap instructions), ``vpns``
    and ``writes`` — replace the historical list of per-access tuples.
    The representation is what makes the batched replay fast path cheap:
    the replay loop indexes raw ``array`` columns instead of unpacking a
    tuple per access, and the whole trace costs ~17 bytes/access instead
    of a ~72-byte tuple plus three boxed objects.

    Iteration still yields ``(gap, vpn, is_write)`` tuples, so analysis
    code and the event-path lane loop are representation-agnostic.
    """

    __slots__ = ("gaps", "vpns", "writes")

    def __init__(self, gaps: array, vpns: array, writes: bytearray) -> None:
        if not (len(gaps) == len(vpns) == len(writes)):
            raise ValueError("trace columns must have equal length")
        self.gaps = gaps
        self.vpns = vpns
        self.writes = writes

    @classmethod
    def from_records(cls, records: Iterable[Access]) -> "TraceBuffer":
        columns = tuple(zip(*records))
        if not columns:
            return cls(array("q"), array("q"), bytearray())
        gaps, vpns, writes = columns
        return cls(array("q", gaps), array("q", vpns), bytearray(map(bool, writes)))

    def __len__(self) -> int:
        return len(self.gaps)

    def __iter__(self) -> Iterator[Access]:
        writes = self.writes
        for i, (gap, vpn) in enumerate(zip(self.gaps, self.vpns)):
            yield (gap, vpn, bool(writes[i]))

    def __getitem__(self, index: int) -> Access:
        return (self.gaps[index], self.vpns[index], bool(self.writes[index]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceBuffer):
            return (
                self.gaps == other.gaps
                and self.vpns == other.vpns
                and self.writes == other.writes
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == tuple(b) for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"TraceBuffer(<{len(self)} accesses>)"


def _as_buffer(trace: Sequence[Access]) -> TraceBuffer:
    if isinstance(trace, TraceBuffer):
        return trace
    return TraceBuffer.from_records(trace)


@dataclass
class Workload:
    """Traces for one application on one system size."""

    name: str
    #: traces[gpu][lane] -> TraceBuffer (tuple lists are coerced on init)
    traces: List[List[TraceBuffer]]
    page_size: int = 4096
    #: free-form generator parameters, recorded for reports.
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Accept the historical list-of-tuples form from generators and
        # tests; store columnar buffers uniformly.
        self.traces = [[_as_buffer(t) for t in gpu] for gpu in self.traces]

    @property
    def num_gpus(self) -> int:
        return len(self.traces)

    def total_accesses(self) -> int:
        return sum(len(t) for gpu in self.traces for t in gpu)

    def total_instructions(self) -> int:
        return sum(g + 1 for gpu in self.traces for t in gpu for g, _v, _w in t)

    def footprint_pages(self) -> int:
        return len({v for gpu in self.traces for t in gpu for _g, v, _w in t})

    def footprint_bytes(self) -> int:
        return self.footprint_pages() * self.page_size

    def write_fraction(self) -> float:
        total = wr = 0
        for gpu in self.traces:
            for t in gpu:
                for _g, _v, w in t:
                    total += 1
                    wr += int(w)
        return wr / total if total else 0.0

    def page_sharers(self) -> Dict[int, Set[int]]:
        """VPN → set of GPUs that access it."""
        sharers: Dict[int, Set[int]] = {}
        for gpu_id, gpu in enumerate(self.traces):
            for t in gpu:
                for _g, vpn, _w in t:
                    sharers.setdefault(vpn, set()).add(gpu_id)
        return sharers

    def sharing_distribution(self) -> Dict[int, float]:
        """Fraction of *accesses* that reference pages shared by k GPUs
        (the paper's page access sharing ratio, Fig. 4)."""
        sharers = self.page_sharers()
        buckets: Dict[int, int] = {}
        total = 0
        for gpu in self.traces:
            for t in gpu:
                for _g, vpn, _w in t:
                    k = len(sharers[vpn])
                    buckets[k] = buckets.get(k, 0) + 1
                    total += 1
        return {k: v / total for k, v in sorted(buckets.items())} if total else {}

    def shared_access_fraction(self) -> float:
        """Fraction of accesses to pages touched by >=2 GPUs."""
        dist = self.sharing_distribution()
        return sum(frac for k, frac in dist.items() if k >= 2)


def partition_pages(base_vpn: int, total_pages: int, num_gpus: int) -> List[range]:
    """Split a contiguous page range into per-GPU contiguous partitions."""
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    per = total_pages // num_gpus
    if per == 0:
        raise ValueError("fewer pages than GPUs")
    parts = []
    for g in range(num_gpus):
        start = base_vpn + g * per
        end = base_vpn + (g + 1) * per if g < num_gpus - 1 else base_vpn + total_pages
        parts.append(range(start, end))
    return parts
