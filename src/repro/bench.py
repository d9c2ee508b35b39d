"""Pinned benchmark harness: ``python -m repro bench``.

Two tiers:

* **micro** — tight loops over the simulator's hot primitives (event
  drain, TLB lookup, IRMB probe/merge).  These localise a regression to
  a subsystem before anyone bisects commit history.
* **macro** — the canonical end-to-end scenarios the figure suite
  leans on (PR on 4 GPUs, baseline and IDYLL), at the default trace
  sizing.  This is the number that tracks what a figure-suite run
  actually costs.

Each benchmark is deterministic in its workload (fixed sizes, fixed
seeds); only wall-clock varies between hosts.  Every result is written
to ``BENCH_<name>.json`` containing the wall time of the best repeat,
a throughput figure (events or operations per second), and the peak
RSS of the process so memory regressions surface too.

``--compare DIR`` reloads previously committed ``BENCH_*.json`` files
and fails (exit 1) when any benchmark's best wall time regressed more
than ``--threshold`` (default 10%).  Wall times only compare within one
machine class — CI compares CI-produced baselines, a laptop compares
laptop runs.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = ["BENCHMARKS", "run_benchmarks", "compare_benchmarks", "main"]

#: name → builder returning (ops, run_callable); registered below.
BENCHMARKS: Dict[str, Callable] = {}


def _benchmark(name: str):
    def register(fn):
        BENCHMARKS[name] = fn
        return fn
    return register


def _peak_rss_kb() -> int:
    """Peak resident set of this process, in KiB (Linux ru_maxrss unit)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# Micro benchmarks
# ---------------------------------------------------------------------------


@_benchmark("engine_drain")
def bench_engine_drain(quick: bool = False) -> Dict[str, float]:
    """Raw event-kernel throughput: interleaved callbacks that each
    reschedule themselves after a deterministic mix of delays."""
    from .sim.engine import Engine

    n_procs = 50
    steps = 400 if quick else 4000

    def proc(pid: int, step: int) -> None:
        if step < steps:
            engine.defer((pid + step) % 7 + 1, proc, pid, step + 1)

    engine = Engine()
    for pid in range(n_procs):
        engine.schedule(0, proc, pid, 0)
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    ops = n_procs * steps
    return {"wall_s": wall, "ops": ops, "ops_per_s": ops / wall if wall else 0.0}


@_benchmark("tlb_lookup")
def bench_tlb_lookup(quick: bool = False) -> Dict[str, float]:
    """L2-TLB-geometry lookup/insert loop with a fixed hit/miss mix."""
    from .config import baseline_config
    from .tlb.tlb import TLB

    tlb = TLB(baseline_config().l2_tlb, "bench.l2tlb")
    rounds = 20_000 if quick else 200_000
    for vpn in range(512):
        tlb.insert(vpn, vpn + 1)
    t0 = time.perf_counter()
    for i in range(rounds):
        vpn = (i * 11) % 1024  # half resident, half missing
        if tlb.lookup(vpn) is None:
            tlb.insert(vpn, vpn + 1)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "ops": rounds, "ops_per_s": rounds / wall if wall else 0.0}


def _tlb_resident_workload(num_gpus: int, lanes: int, accesses: int, pages: int):
    """Trace whose working set fits each lane's L1 TLB: after the
    first-touch faults every access is a local L1 hit, i.e. the batched
    replay tier's best case."""
    from .workloads.base import Workload

    traces = []
    for g in range(num_gpus):
        gpu_traces = []
        for lane in range(lanes):
            base = (1 << 20) + (g * lanes + lane) * pages
            gpu_traces.append(
                [(1, base + (i % pages), (i % 7) == 3) for i in range(accesses)]
            )
        traces.append(gpu_traces)
    return Workload(name="tlb_resident", traces=traces)


@_benchmark("fastpath_batch_replay")
def bench_fastpath_batch_replay(quick: bool = False) -> Dict[str, float]:
    """Batched fast-path replay over a TLB-resident trace — the tentpole
    scenario for the two-tier replay core.  ``ops`` counts simulated
    accesses; ``replayed`` records how many the batch tier absorbed
    (informational, like every field other than ``wall_s``)."""
    from .config import InvalidationScheme, baseline_config
    from .gpu.system import MultiGPUSystem

    accesses = 5_000 if quick else 20_000
    workload = _tlb_resident_workload(num_gpus=4, lanes=4, accesses=accesses, pages=16)
    config = baseline_config(4).with_scheme(InvalidationScheme.IDYLL)
    system = MultiGPUSystem(config, seed=7)
    t0 = time.perf_counter()
    result = system.run(workload)
    wall = time.perf_counter() - t0
    ops = result.accesses
    return {
        "wall_s": wall,
        "ops": ops,
        "ops_per_s": ops / wall if wall else 0.0,
        "exec_time": result.exec_time,
        "replayed": system.fastpath.replayed if system.fastpath else 0,
    }


@_benchmark("irmb_probe_merge")
def bench_irmb_probe_merge(quick: bool = False) -> Dict[str, float]:
    """IRMB insert (merge + evict paths) and demand-miss probes."""
    from .config import baseline_config
    from .core.irmb import IRMB
    from .memory.address import AddressLayout

    config = baseline_config()
    irmb = IRMB(config.irmb, AddressLayout(config.page_size), "bench.irmb")
    rounds = 10_000 if quick else 100_000
    t0 = time.perf_counter()
    for i in range(rounds):
        # Stride chosen to exercise merges (same base) and base/offset
        # evictions (base churn beyond the 32-entry array).
        vpn = ((i * 7) % 64) << 9 | (i % 16)
        irmb.insert(vpn)
        irmb.lookup((i * 13) % (1 << 15))
    wall = time.perf_counter() - t0
    ops = rounds * 2
    return {"wall_s": wall, "ops": ops, "ops_per_s": ops / wall if wall else 0.0}


# ---------------------------------------------------------------------------
# Macro benchmarks — the canonical figure-suite scenarios
# ---------------------------------------------------------------------------


def _macro(app: str, scheme, quick: bool) -> Dict[str, float]:
    from .config import baseline_config
    from .experiments.runner import simulate

    config = baseline_config(4).with_scheme(scheme)
    accesses = 300 if quick else 1200
    t0 = time.perf_counter()
    result = simulate(app, config, lanes=4, accesses_per_lane=accesses, seed=7)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "ops": result.accesses,
        "ops_per_s": result.accesses / wall if wall else 0.0,
        "exec_time": result.exec_time,
    }


@_benchmark("macro_pr_baseline")
def bench_macro_pr_baseline(quick: bool = False) -> Dict[str, float]:
    """End-to-end: PR on 4 GPUs, baseline broadcast invalidation."""
    from .config import InvalidationScheme

    return _macro("PR", InvalidationScheme.BROADCAST, quick)


@_benchmark("macro_pr_idyll")
def bench_macro_pr_idyll(quick: bool = False) -> Dict[str, float]:
    """End-to-end: PR on 4 GPUs, full IDYLL."""
    from .config import InvalidationScheme

    return _macro("PR", InvalidationScheme.IDYLL, quick)


@_benchmark("sweep_scaling")
def bench_sweep_scaling(quick: bool = False) -> Dict[str, float]:
    """Distributed sweep fabric on a pinned cache-cold grid: 1 vs 2 vs 4
    local single-worker hosts.

    The gated statistic (``wall_s``) is the 2-host wall; the extra
    fields record the whole scaling ladder — ``speedup_2w`` is the
    headline ratio (full tier; the quick tier's tiny tasks leave agent
    bring-up visible in the ratio).  ``cpu_count`` records the cores
    the kernel let this process use: simulation tasks are pure CPU, so
    the ratio is only meaningful when it is ≥ 2 — on a single-core
    container every fleet shares one core and the ratio degenerates to
    ~1 by construction, measuring scheduling overhead, not the fabric.
    """
    import shutil
    import tempfile

    from .config import InvalidationScheme, baseline_config
    from .experiments.cache import ResultCache
    from .experiments.fabric import FabricRunner

    # Full-tier tasks are deliberately heavy (4-GPU grid, full lane
    # count): fleet bring-up — one agent spawn plus one spawn-context
    # worker import chain per host — is a ~1.3s constant, and the
    # scaling ratio only means anything once per-task compute dwarfs it.
    lanes = 2 if quick else 4
    accesses = 300 if quick else 1200
    apps = ["PR", "KM"] if quick else ["PR", "KM", "SC", "MM"]
    gpus = 2 if quick else 4
    configs = [
        baseline_config(gpus),
        baseline_config(gpus).with_scheme(InvalidationScheme.IDYLL),
    ]
    requests = [(app, config, 1.0) for app in apps for config in configs]

    def fleet(hosts: List[str]) -> tuple:
        # A fresh private cache per measurement keeps every fleet
        # cache-cold — the grid is simulated, never served from disk.
        tmp = tempfile.mkdtemp(prefix="repro-bench-fabric-")
        try:
            runner = FabricRunner(
                hosts,
                lanes=lanes,
                accesses_per_lane=accesses,
                seed=7,
                cache=ResultCache(Path(tmp), remote=False),
            )
            t0 = time.perf_counter()
            results = runner.run_many(requests, sweep_name="bench")
            wall = time.perf_counter() - t0
            return wall, sum(r.accesses for r in results)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    wall_1, _ = fleet(["local:1"])
    wall_2, ops = fleet(["local:1", "local:1"])
    wall_4, _ = fleet(["local:1", "local:1", "local:1", "local:1"])
    return {
        "wall_s": wall_2,
        "ops": ops,
        "ops_per_s": ops / wall_2 if wall_2 else 0.0,
        "wall_1w_s": wall_1,
        "wall_2w_s": wall_2,
        "wall_4w_s": wall_4,
        "speedup_2w": wall_1 / wall_2 if wall_2 else 0.0,
        "speedup_4w": wall_1 / wall_4 if wall_4 else 0.0,
        "cpu_count": float(len(os.sched_getaffinity(0))),
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def run_benchmarks(
    names: Optional[List[str]] = None,
    quick: bool = False,
    repeat: int = 3,
    output_dir: Optional[Path] = None,
) -> Dict[str, dict]:
    """Run the selected benchmarks; write one ``BENCH_<name>.json`` per
    benchmark and return the records keyed by name.

    Each benchmark runs ``repeat`` times and keeps the *best* wall time
    — the repeat least perturbed by scheduler noise — which is the
    stable statistic for regression comparison.
    """
    selected = names if names else sorted(BENCHMARKS)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise KeyError(f"unknown benchmark(s) {unknown}; have {sorted(BENCHMARKS)}")
    output_dir = Path(output_dir) if output_dir is not None else Path.cwd()
    output_dir.mkdir(parents=True, exist_ok=True)

    records: Dict[str, dict] = {}
    for name in selected:
        best: Optional[Dict[str, float]] = None
        for _ in range(max(1, repeat)):
            sample = BENCHMARKS[name](quick=quick)
            if best is None or sample["wall_s"] < best["wall_s"]:
                best = sample
        record = {
            "name": name,
            "quick": quick,
            "repeat": repeat,
            "peak_rss_kb": _peak_rss_kb(),
            **best,
        }
        path = output_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        records[name] = record
        print(
            f"{name:<22} {record['wall_s']*1e3:9.1f} ms   "
            f"{record['ops_per_s']:13,.0f} ops/s   rss {record['peak_rss_kb']:,} KiB"
        )
    return records


def compare_benchmarks(
    current: Dict[str, dict],
    baseline_dir: Path,
    threshold: float = 0.10,
) -> List[str]:
    """Compare ``current`` records against committed ``BENCH_*.json``
    files; returns human-readable regression messages (empty = pass).

    Only **wall time** is gated: a benchmark regresses when its best
    ``wall_s`` exceeds the baseline's by more than ``threshold``.
    Throughput (``ops_per_s``) and peak RSS deltas are printed as
    **advisory** context on the same line — they explain *why* wall
    time moved (more work per second vs more memory pressure) — but
    never fail the comparison (RSS in particular is too
    allocator-dependent to gate on).

    Benchmarks present on only one side are reported as info, not
    failures, so adding a benchmark never breaks the comparison that
    introduces it.
    """
    regressions: List[str] = []
    baseline_dir = Path(baseline_dir)
    for name, record in sorted(current.items()):
        path = baseline_dir / f"BENCH_{name}.json"
        if not path.exists():
            print(f"{name:<22} no baseline at {path} (skipped)")
            continue
        base = json.loads(path.read_text())
        if bool(base.get("quick")) != bool(record.get("quick")):
            print(f"{name:<22} baseline sizing differs (quick flag); skipped")
            continue
        ratio = record["wall_s"] / base["wall_s"] if base["wall_s"] else 1.0
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSION"
            regressions.append(
                f"{name}: {record['wall_s']*1e3:.1f} ms vs baseline "
                f"{base['wall_s']*1e3:.1f} ms ({ratio:.2f}x, limit "
                f"{1.0 + threshold:.2f}x)"
            )
        advisory = _advisory_deltas(record, base)
        print(f"{name:<22} {ratio:5.2f}x vs baseline   {verdict}{advisory}")
    return regressions


def _advisory_deltas(record: dict, base: dict) -> str:
    """Non-gating ops/s and peak-RSS percentage deltas vs baseline,
    formatted for the compare line (empty when neither side has the
    field — old baselines may predate it)."""
    parts = []
    if base.get("ops_per_s") and record.get("ops_per_s"):
        delta = (record["ops_per_s"] / base["ops_per_s"] - 1.0) * 100.0
        parts.append(f"ops/s {delta:+.1f}%")
    if base.get("peak_rss_kb") and record.get("peak_rss_kb"):
        delta = (record["peak_rss_kb"] / base["peak_rss_kb"] - 1.0) * 100.0
        parts.append(f"rss {delta:+.1f}%")
    return ("   [" + ", ".join(parts) + "]") if parts else ""


def profile_benchmarks(
    names: Optional[List[str]],
    quick: bool,
    output_path: Path,
    top: int = 25,
) -> None:
    """Run each selected benchmark once under cProfile and write the
    ``top`` cumulative-time functions per benchmark to ``output_path``
    (the CI artifact that localises a wall-time regression to a
    function without anyone re-running the profiler locally)."""
    import cProfile
    import io
    import pstats

    selected = names if names else sorted(BENCHMARKS)
    sections: List[str] = []
    for name in selected:
        profiler = cProfile.Profile()
        profiler.enable()
        BENCHMARKS[name](quick=quick)
        profiler.disable()
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats("cumtime").print_stats(top)
        sections.append(f"=== {name} (top {top} by cumulative time) ===\n{text.getvalue()}")
    output_path.write_text("\n".join(sections))
    print(f"profile written to {output_path}")


def main(args) -> int:
    """Entry point for the ``repro bench`` CLI subcommand."""
    names = args.only if args.only else None
    records = run_benchmarks(
        names=names,
        quick=args.quick,
        repeat=args.repeat,
        output_dir=Path(args.output_dir),
    )
    if getattr(args, "profile_out", None):
        profile_benchmarks(names, args.quick, Path(args.profile_out))
    if args.compare:
        regressions = compare_benchmarks(
            records, Path(args.compare), threshold=args.threshold
        )
        if regressions:
            print("\nbenchmark regressions detected:")
            for message in regressions:
                print(f"  {message}")
            return 1
    return 0
