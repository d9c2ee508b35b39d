"""Statistics primitives shared by all simulated components.

Every component owns a :class:`StatsGroup`; the system-level collector in
:mod:`repro.metrics` merges them into the per-figure reports.  A
component binds the statistics its hot paths touch once, when it is
built, and bumps a bound counter with ``counter.value += 1``: looking a
statistic up by name, or calling :meth:`Counter.add`, on every access
costs a Python call each time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = ["Counter", "LatencyStat", "Histogram", "StatsGroup"]


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class LatencyStat:
    """Aggregates a stream of latency samples (count/total/min/max)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, sample: int) -> None:
        if self.count:
            if sample < self.min:
                self.min = sample
            elif sample > self.max:
                self.max = sample
        else:
            self.min = self.max = sample
        self.count += 1
        self.total += sample

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyStat") -> None:
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def __repr__(self) -> str:
        return f"LatencyStat({self.name}: n={self.count}, mean={self.mean:.1f})"


class Histogram:
    """Bucketed distribution over small non-negative integer keys."""

    __slots__ = ("name", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: Dict[int, int] = {}

    def record(self, key: int, weight: int = 1) -> None:
        self.buckets[key] = self.buckets.get(key, 0) + weight

    @property
    def total(self) -> int:
        return sum(self.buckets.values())

    def fraction(self, key: int) -> float:
        total = self.total
        return self.buckets.get(key, 0) / total if total else 0.0

    def fractions(self, keys: Iterable[int]) -> List[float]:
        return [self.fraction(k) for k in keys]

    def __repr__(self) -> str:
        return f"Histogram({self.name}: {self.buckets})"


class StatsGroup:
    """A named bag of counters / latency stats / histograms."""

    __slots__ = ("name", "counters", "latencies", "histograms")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters: Dict[str, Counter] = {}
        self.latencies: Dict[str, LatencyStat] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def latency(self, name: str) -> LatencyStat:
        if name not in self.latencies:
            self.latencies[name] = LatencyStat(name)
        return self.latencies[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def as_dict(self) -> Dict[str, float]:
        """Flatten to scalar metrics (for reports and assertions)."""
        out: Dict[str, float] = {}
        for c in self.counters.values():
            out[f"{c.name}"] = c.value
        for l in self.latencies.values():
            out[f"{l.name}.count"] = l.count
            out[f"{l.name}.total"] = l.total
            out[f"{l.name}.mean"] = l.mean
        return out

    def snapshot(self) -> dict:
        """Plain-data view of every statistic (the model-digest test
        hashes it)."""
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "latencies": {
                n: (l.count, l.total, l.min, l.max)
                for n, l in self.latencies.items()
            },
            "histograms": {
                n: dict(h.buckets) for n, h in self.histograms.items()
            },
        }
