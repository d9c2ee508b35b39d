"""Layer map and cProfile self-time attribution.

A layer is a group of modules under ``src/repro``.  Every module is
listed by path, so a new module that nobody has placed in a layer makes
``test_perf_bench.py`` fail instead of silently landing nowhere.

Self time is cProfile's ``tottime``.  Frames outside ``src/repro``
(builtins, numpy, heapq, the standard library) have no layer of their
own: their self time is charged to their nearest ``src/repro`` callers
through the profile's caller edges, split in proportion to the time
each edge carried.  Time with no ``src/repro`` frame anywhere above it
(the benchmark harness, interpreter start-up) is ``unattributed``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Tuple

#: layer -> modules (paths relative to ``src/repro``).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("sim/engine.py", "sim/process.py"),
    "sim.stats": ("sim/stats.py",),
    "sim.support": (
        "sim/__init__.py", "sim/rng.py", "sim/snapshot.py", "sim/trace.py",
    ),
    "gpu.gpu": ("gpu/__init__.py", "gpu/cu.py", "gpu/gpu.py", "gpu/system.py"),
    "gpu.fastpath": ("gpu/fastpath.py",),
    "tlb": ("tlb/__init__.py", "tlb/mshr.py", "tlb/tlb.py"),
    "gmmu": (
        "gmmu/__init__.py", "gmmu/gmmu.py", "gmmu/request.py",
        "memory/walk_cache.py",
    ),
    "memory": (
        "memory/__init__.py", "memory/address.py", "memory/page_table.py",
        "memory/physmem.py", "memory/pte.py",
    ),
    "interconnect": (
        "interconnect/__init__.py", "interconnect/link.py",
        "interconnect/topology.py",
    ),
    "uvm": (
        "uvm/__init__.py", "uvm/driver.py", "uvm/fault.py", "uvm/migration.py",
        "uvm/protocol.py", "uvm/replication.py",
    ),
    "core": (
        "core/__init__.py", "core/area.py", "core/directory.py", "core/inmem.py",
        "core/irmb.py", "core/lazy.py", "core/transfw.py",
    ),
    "workloads": (
        "workloads/__init__.py", "workloads/base.py", "workloads/dnn.py",
        "workloads/io.py", "workloads/patterns.py", "workloads/suite.py",
    ),
    "faults": (
        "faults/__init__.py", "faults/auditor.py", "faults/history.py",
        "faults/injector.py", "faults/profiles.py", "faults/schedule.py",
        "faults/tracegen.py",
    ),
    "metrics": (
        "metrics/__init__.py", "metrics/collector.py", "metrics/export.py",
        "metrics/report.py", "metrics/trace_export.py",
    ),
    "config": ("config.py",),
    "experiments.figures": (
        "experiments/__init__.py", "experiments/campaign.py",
        "experiments/figures.py", "experiments/fuzz.py",
        "experiments/runner.py", "experiments/scenarios.py",
    ),
    "experiments.parallel": (
        "experiments/parallel.py", "experiments/fabric.py",
        "experiments/hostagent.py", "experiments/transport.py",
    ),
    "experiments.journal": ("experiments/journal.py",),
    "experiments.cache": ("experiments/cache.py",),
    "service": (
        "service/__init__.py", "service/app.py", "service/events.py",
        "service/manager.py", "service/models.py", "service/queue.py",
        "service/server.py",
    ),
    "cli": ("__init__.py", "__main__.py", "bench.py", "cli.py"),
}

UNATTRIBUTED = "unattributed"

MODULE_LAYER: Dict[str, str] = {
    module: layer for layer, modules in LAYERS.items() for module in modules
}

# A pstats function key: (filename, line, name); the stats value is
# (primitive calls, calls, tottime, cumtime, callers), where callers
# maps a caller key to that edge's (primitive calls, calls, tottime,
# cumtime).
Func = Tuple[str, int, str]


class Attribution:
    """Layer self times and call counts of one profile."""

    def __init__(self, stats: Mapping, package_root: Path) -> None:
        self.stats = stats
        self._prefix = str(Path(package_root).resolve()) + "/"
        self._shares: Dict[Func, Dict[str, float]] = {}

    def module_of(self, func: Func) -> str:
        """Path of ``func``'s file relative to ``src/repro``, or ''."""
        filename = func[0]
        if filename.startswith(self._prefix):
            return filename[len(self._prefix):]
        return ""

    def layer_of(self, func: Func) -> str:
        """Layer of ``func``'s module; '' for frames outside the package.

        Raises ``KeyError`` for a package module missing from LAYERS."""
        module = self.module_of(func)
        return MODULE_LAYER[module] if module else ""

    def _share(self, func: Func, visiting: frozenset) -> Dict[str, float]:
        """Fraction of ``func``'s self time owed to each layer."""
        cached = self._shares.get(func)
        if cached is not None:
            return cached
        layer = self.layer_of(func)
        if layer:
            share = {layer: 1.0}
        else:
            # Recursive edges (a caller already on the walk) say nothing
            # about who called in from outside, so they carry no weight.
            visiting = visiting | {func}
            callers = {
                c: edge for c, edge in self.stats.get(func, (0, 0, 0, 0, {}))[4].items()
                if c not in visiting
            }
            weights = {c: edge[2] for c, edge in callers.items()}
            if sum(weights.values()) <= 0.0:
                weights = {c: float(edge[1]) for c, edge in callers.items()}
            total = sum(weights.values())
            share = {}
            for caller, weight in weights.items():
                if weight <= 0.0:
                    continue
                for name, part in self._share(caller, visiting).items():
                    share[name] = share.get(name, 0.0) + part * weight / total
            if not share:
                share = {UNATTRIBUTED: 1.0}
        # Memoised even when a caller cycle was cut on the way: the cut
        # edge only shifts recursion among non-package frames, and
        # without the memo the walk is exponential in the caller graph.
        self._shares[func] = share
        return share

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (every layer, plus
        ``unattributed``)."""
        totals = {layer: 0.0 for layer in LAYERS}
        totals[UNATTRIBUTED] = 0.0
        for func, row in self.stats.items():
            tottime = row[2]
            if tottime <= 0.0:
                continue
            for layer, part in self._share(func, frozenset()).items():
                totals[layer] += tottime * part
        return totals

    def calls(self, module: str, name: str = "") -> int:
        """Calls of every function in ``module`` (relative to
        ``src/repro``), or only of the functions named ``name``."""
        return sum(
            row[1] for func, row in self.stats.items()
            if self.module_of(func) == module and (not name or func[2] == name)
        )


def unmapped_modules(package_root: Path) -> list:
    """Modules under ``package_root`` that no layer lists."""
    root = Path(package_root)
    return sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if str(path.relative_to(root)) not in MODULE_LAYER
    )
