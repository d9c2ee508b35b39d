"""The benchmark's four workloads, one function each.

Every workload drives the simulator from outside, through its public
API (``build_app_workload``, ``MultiGPUSystem.run``, ``audit_system``,
``ResultCache.get``) or its CLIs (``repro figure``, ``repro serve``),
and returns a plain dict::

    {"ops": int, "ops_failed": int, "failures": [str],
     "metrics": {end-to-end name: value},
     "layers": {per-layer name: value},     # traced runs only
     "details": {...}}                      # printed, not compared

Times in ``metrics`` are reference seconds (see ``probe.py``), except
the service's hit latency, which waits on the server's scheduling tick.
``run.py`` runs each workload in a fresh child process by executing
this file::

    python benchmarks/perf/workloads.py NAME --seed N --seconds S \\
        --trace 0|1 --out RESULT.json

Load stays within two CPUs: one simulation at a time in-process,
``--jobs min(2, nproc)`` for the figure grid and the server, and two
client threads.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import http.client
import io
import json
import math
import os
import pstats
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from layers import LAYERS, UNATTRIBUTED, Attribution
from probe import SpeedProbe, cpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_build" / "perf"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def jobs() -> int:
    """Worker processes for the grid and the server."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------------------
# Statistics and processes
# ---------------------------------------------------------------------------


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile.

    Above the median the percentile must have at least ten samples
    beyond it, or it is noise: ``ValueError`` otherwise."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if q > 50 and len(ordered) - rank < 10:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} "
            f"beyond it; at least 10 are needed"
        )
    return ordered[rank - 1]


def _median(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for a ``repro`` process: the checkout's sources on
    the path and no inherited ``REPRO_*`` knob that would resize runs or
    share a cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


@contextlib.contextmanager
def _environ(**values: str):
    """Only the given ``REPRO_*`` variables, for an in-process CLI call."""
    saved = dict(os.environ)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(values)
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


@contextlib.contextmanager
def _pinned(cpu_set: List[int]):
    """Run this process (and what it starts) on ``cpu_set`` only."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpu_set)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def _run_cli(args: List[str], env: Dict[str, str], timeout: float = 150.0):
    """Run ``python -m repro ARGS``; returns (exit code, wall seconds,
    stderr tail)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    return proc.returncode, time.perf_counter() - start, proc.stderr[-400:]


def _work_dir(prefix: str) -> Path:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))


def _speed(cpu_set: List[int]) -> SpeedProbe:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return SpeedProbe(cpu_set, WORK_ROOT)


# ---------------------------------------------------------------------------
# Per-layer report
# ---------------------------------------------------------------------------


def _profiled(fn: Callable):
    """Run ``fn`` under cProfile; returns (value, stats, wall seconds)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    return value, pstats.Stats(profiler).stats, time.perf_counter() - start


def _profile_layers(stats, total: float) -> Dict[str, float]:
    """Self time per layer, call counts, and the share of ``total`` (the
    traced wall, or the traced CPU for a CPU timer) charged to layers."""
    attribution = Attribution(stats, PACKAGE)
    selfs = attribution.self_times()
    out = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
    out["unattributed.self_s"] = selfs[UNATTRIBUTED]
    out["trace.attributed_frac"] = (
        sum(selfs[layer] for layer in LAYERS) / total if total > 0 else 0.0
    )
    out["tlb.lookup_calls"] = attribution.calls("tlb/tlb.py", "lookup")
    out["interconnect.transfer_calls"] = attribution.calls(
        "interconnect/link.py", "transfer"
    )
    out["gpu.fastpath.calls"] = attribution.calls("gpu/fastpath.py")
    return out


def _result_layers(results) -> Dict[str, float]:
    """Modelled-component counts and model summaries over results."""
    from repro.workloads.suite import APPS

    def total(field: str) -> float:
        return float(sum(getattr(r, field) for r in results))

    pwc_hits = sum(r.extras.get("pwc_hits", 0) for r in results)
    pwc_misses = sum(r.extras.get("pwc_misses", 0) for r in results)
    exec_time = {(r.workload, r.num_gpus, r.scheme): r.exec_time for r in results}
    speedups = [
        exec_time[(app, gpus, "broadcast")] / cycles
        for (app, gpus, scheme), cycles in exec_time.items()
        if scheme == "idyll" and cycles and (app, gpus, "broadcast") in exec_time
    ]
    mpki_errors = [
        abs(math.log(r.mpki / APPS[r.workload].paper_mpki))
        for r in results
        if r.scheme == "broadcast" and r.workload in APPS and r.mpki > 0
    ]
    l1 = total("l1_hits") + total("l1_misses")
    l2 = total("l2_hits") + total("l2_misses")
    return {
        "tlb.l1_hit_rate": _ratio(total("l1_hits"), l1),
        "tlb.l2_hit_rate": _ratio(total("l2_hits"), l2),
        "gmmu.walks": total("demand_walks") + total("update_walks") + total("inval_walks"),
        "gmmu.pwc_hit_rate": _ratio(pwc_hits, pwc_hits + pwc_misses),
        "interconnect.bytes": total("nvlink_bytes") + total("pcie_bytes"),
        "uvm.far_faults": total("far_faults"),
        "uvm.migrations": total("migrations"),
        "uvm.invalidations_sent": total("invalidations_sent"),
        "core.irmb_inserts": total("irmb_inserts"),
        "core.irmb_merged_frac": _ratio(total("irmb_merged_inserts"), total("irmb_inserts")),
        "model.exec_cycles": total("exec_time"),
        "model.idyll_speedup_geomean": (
            math.exp(statistics.fmean(math.log(s) for s in speedups)) if speedups else 0.0
        ),
        "model.table3_mpki_err": statistics.fmean(mpki_errors) if mpki_errors else 0.0,
    }


def _digest(results) -> str:
    """sha256 over the canonical JSON of ``results``, in order."""
    from repro.metrics.export import result_to_json_bytes

    digest = hashlib.sha256()
    for result in results:
        digest.update(result_to_json_bytes(result))
    return digest.hexdigest()


def _cache_layers(cache_dir: Path):
    """Read every entry of a result cache; returns (metrics, results)."""
    from repro.experiments.cache import ResultCache

    cache = ResultCache(cache_dir, remote=False)
    paths = sorted(cache_dir.glob("*/*.pkl"))
    results, read_s = [], 0.0
    for path in paths:
        start = time.perf_counter()
        result = cache.get(path.stem)
        read_s += time.perf_counter() - start
        if result is not None:
            results.append(result)
    journals = sorted((cache_dir / "journals").glob("*.jsonl"))
    metrics = {
        "cache.entries": len(paths),
        "cache.bytes": sum(p.stat().st_size for p in paths),
        "cache.read_s_per_entry": _ratio(read_s, len(paths)),
        "journal.records": sum(len(p.read_text().splitlines()) for p in journals),
    }
    return metrics, results


def _layer_report(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json: a layer this
    workload's measured processes never exercise reads 0."""
    names = [m["name"] for m in load_spec()["per_layer"]]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return {name: float(values.get(name, 0.0)) for name in names}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _warm_up() -> None:
    """One tiny simulation, so lazy imports and first-call costs land
    in set-up rather than in the first measured run."""
    from repro.config import InvalidationScheme, baseline_config
    from repro.experiments.runner import build_app_workload
    from repro.gpu.system import MultiGPUSystem

    config = baseline_config(2).with_scheme(InvalidationScheme.IDYLL)
    workload = build_app_workload(
        "SC", num_gpus=2, page_size=config.page_size, scale=1.0,
        lanes=1, accesses_per_lane=50, seed=1,
    )
    MultiGPUSystem(config, seed=1).run(workload)


def _probe_setup(name: str, seed: int, speed: SpeedProbe) -> float:
    """Reference seconds of set-up in a fresh child (``--setup-only``)."""
    work = _work_dir("setup-")
    try:
        out = work / "setup.json"
        mark = speed.mark()
        subprocess.run(
            [sys.executable, str(Path(__file__)), name, "--seed", str(seed),
             "--setup-only", "--out", str(out)],
            cwd=str(ROOT), env=child_env(), check=True, timeout=120,
            stdout=subprocess.DEVNULL,
        )
        return json.loads(out.read_text())["setup_s"] * speed.factor(mark)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# apps: the nine Table-3 apps x {broadcast, idyll}
# ---------------------------------------------------------------------------


def _app_configs(gpus: int) -> dict:
    from repro.config import InvalidationScheme, baseline_config

    return {
        scheme: baseline_config(gpus).with_scheme(scheme)
        for scheme in (InvalidationScheme.BROADCAST, InvalidationScheme.IDYLL)
    }


def _app_workloads(seed: int, names, gpus: int, lanes: int, accesses: int) -> dict:
    from repro.experiments.runner import build_app_workload
    from repro.workloads.suite import APP_ORDER

    return {
        app: build_app_workload(
            app, num_gpus=gpus, page_size=4096, scale=1.0, lanes=lanes,
            accesses_per_lane=accesses, seed=seed,
        )
        for app in (names or APP_ORDER)
    }


def _apps_pass(workloads: dict, configs: dict, seed: int,
               speed: Optional[SpeedProbe] = None, only=None) -> List[dict]:
    """One serial run of every app x scheme (or of the (app, scheme)
    pairs in ``only``).  Each system is audited outside the timed run
    and dropped before the next is built."""
    from repro.faults.auditor import audit_system
    from repro.gpu.system import MultiGPUSystem

    runs = []
    for app, workload in workloads.items():
        for scheme, config in configs.items():
            if only is not None and (app, scheme) not in only:
                continue
            start = time.perf_counter()
            system = MultiGPUSystem(config, seed=seed)
            mark = speed.mark() if speed else (time.perf_counter(), [])
            result = system.run(workload)
            done = time.perf_counter()
            violations = audit_system(system)
            runs.append({
                "app": app, "scheme": scheme, "result": result,
                "construct_s": mark[0] - start, "wall_s": done - mark[0],
                "audit_s": time.perf_counter() - done,
                "factor": speed.factor(mark) if speed else 1.0,
                "violations": len(violations),
                "expected": workload.total_accesses(),
                "replayed": system.fastpath.replayed if system.fastpath else 0,
            })
    return runs


def _apps_setup_only(seed: int) -> float:
    """What ``apps`` pays before its first run, in a fresh process."""
    from repro.gpu.system import MultiGPUSystem

    start = time.perf_counter()
    _warm_up()
    configs = _app_configs(4)
    for _ in _app_workloads(seed, None, 4, 4, 1200):
        for config in configs.values():
            MultiGPUSystem(config, seed=seed)
    return time.perf_counter() - start


def apps(seed: int, seconds: float, trace: bool, *, names=None, gpus: int = 4,
         lanes: int = 4, accesses: int = 1200, setup_probes: int = 2) -> dict:
    """The Table-3 apps at default sizing, serially, without a cache.

    Migration and invalidation dominate, so the engine, link, GMMU/PWC,
    UVM driver, TLBs and IRMB do the work and the fast path is bypassed.
    Sets of apps x {broadcast, idyll} repeat while the budget lasts
    (at least one set).  A traced run adds one profiled pass that builds
    every app's traces and runs each app once, the schemes alternating,
    so that it stays within the time limit under cProfile's overhead."""
    cpu = cpus(1)
    with _pinned(cpu), _speed(cpu) as speed:
        mark = speed.mark()
        _warm_up()
        configs = _app_configs(gpus)
        built = time.perf_counter()
        workloads = _app_workloads(seed, names, gpus, lanes, accesses)
        build_s = time.perf_counter() - built
        setup = speed.seconds(mark)

        runs: List[dict] = []
        start = time.perf_counter()
        while True:
            runs.extend(_apps_pass(workloads, configs, seed, speed))
            elapsed = time.perf_counter() - start
            sets = len(runs) // (2 * len(workloads))
            if trace or elapsed + elapsed / sets > seconds:
                break
        first = runs[:2 * len(workloads)]
        setups = [setup + sum(r["construct_s"] * r["factor"] for r in first)]
        setups += [_probe_setup("apps", seed, speed) for _ in range(setup_probes)]
        if trace:
            schemes = list(configs)
            only = {(app, schemes[i % 2]) for i, app in enumerate(workloads)}
            profiled, stats, traced = _profiled(lambda: _apps_pass(
                _app_workloads(seed, names, gpus, lanes, accesses), configs, seed,
                only=only,
            ))

    failures = []
    for r in runs:
        result = r["result"]
        if result.aborted:
            failures.append(f"{r['app']}/{r['scheme'].value} aborted: {result.abort_reason}")
        elif result.accesses != r["expected"]:
            failures.append(
                f"{r['app']}/{r['scheme'].value} retired {result.accesses} of {r['expected']}"
            )
    results = [r["result"] for r in first]
    incoherent = sum(1 for r in first if r["violations"])
    replayed = sum(r["replayed"] for r in first)
    expected = sum(r["expected"] for r in first)
    accesses = sum(r["result"].accesses for r in runs)
    wall = sum(r["wall_s"] for r in runs)
    normalized = [r["wall_s"] * r["factor"] for r in runs]
    out = {
        "ops": len(runs),
        "ops_failed": len(failures),
        "failures": failures,
        "metrics": {
            "setup_s": _median(setups),
            "work_per_s": accesses / sum(normalized),
            "latency_p50_s": _median([
                sum(normalized[i:i + len(first)]) for i in range(0, len(runs), len(first))
            ]),
            "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        },
        "details": {
            "sets": sets,
            "host_accesses_per_s": accesses / wall,
            "speed_factor": sum(normalized) / wall,
            "incoherent_runs": f"{incoherent}/{len(first)}",
            "fastpath_replayed": f"{replayed}/{expected}",
            "model.digest": _digest(results),
        },
    }
    if trace:
        untraced = build_s + sum(
            r["construct_s"] + r["wall_s"] + r["audit_s"]
            for r in first if (r["app"], r["scheme"]) in only
        )
        out["details"]["traced_wall_s"] = traced
        layers = _profile_layers(stats, traced)
        layers.update(_result_layers(results))
        layers.update({
            "faults.audit_violations": sum(r["violations"] for r in first),
            "faults.incoherent_run_frac": incoherent / len(first),
            "gpu.fastpath.replayed_frac": replayed / expected,
            "gpu.fastpath.accesses_per_call": _ratio(
                sum(r["replayed"] for r in profiled), layers["gpu.fastpath.calls"]
            ),
            "trace.overhead_frac": traced / untraced - 1.0,
        })
        out["layers"] = _layer_report(layers)
    return out


# ---------------------------------------------------------------------------
# tlb_resident: a trace the replay fast path absorbs
# ---------------------------------------------------------------------------


def tlb_trace(seed: int, gpus: int = 4, lanes: int = 4, accesses: int = 5000,
              pages: int = 16):
    """Per lane, ``pages`` private pages (drawn from the lane's own
    64-page window) visited in a seeded cyclic order; every 7th access
    (seeded phase) is a write.  After the first-touch faults every
    access hits the L1 TLB."""
    from repro.workloads.base import Workload

    rng = random.Random(seed)
    traces = []
    for gpu in range(gpus):
        gpu_traces = []
        for lane in range(lanes):
            window = (1 << 20) + (gpu * lanes + lane) * 64
            own = rng.sample(range(window, window + 64), pages)
            phase = rng.randrange(7)
            gpu_traces.append(
                [(1, own[i % pages], i % 7 == phase) for i in range(accesses)]
            )
        traces.append(gpu_traces)
    return Workload(name="tlb_resident", traces=traces)


def _tlb_config(fastpath: bool):
    from repro.config import InvalidationScheme, baseline_config

    return baseline_config(4).with_scheme(InvalidationScheme.IDYLL).with_fastpath(fastpath)


def _tlb_run(workload, config, seed: int, speed: Optional[SpeedProbe] = None) -> dict:
    from repro.gpu.system import MultiGPUSystem

    start = time.perf_counter()
    system = MultiGPUSystem(config, seed=seed)
    mark = speed.mark() if speed else (time.perf_counter(), [])
    result = system.run(workload)
    wall = time.perf_counter() - mark[0]
    return {
        "result": result, "construct_s": mark[0] - start, "wall_s": wall,
        "factor": speed.factor(mark) if speed else 1.0,
        "replayed": system.fastpath.replayed if system.fastpath else 0,
    }


def _tlb_setup_only(seed: int) -> float:
    from repro.gpu.system import MultiGPUSystem

    start = time.perf_counter()
    _warm_up()
    tlb_trace(seed)
    MultiGPUSystem(_tlb_config(True), seed=seed)
    return time.perf_counter() - start


def tlb_resident(seed: int, seconds: float, trace: bool, *, accesses: int = 5000,
                 min_repeats: int = 3, setup_probes: int = 2) -> dict:
    """4 GPUs x 4 lanes x ``accesses`` over 16 private pages per lane,
    IDYLL, fast path on.  The batch kernel absorbs nearly every access
    and the driver and GMMU sit idle, so this isolates ``gpu.fastpath``.
    Fast-path repeats run while the budget lasts (at least
    ``min_repeats``); an untimed event-path run is the reference every
    repeat must equal field for field."""
    fast_config, event_config = _tlb_config(True), _tlb_config(False)
    cpu = cpus(1)
    with _pinned(cpu), _speed(cpu) as speed:
        mark = speed.mark()
        _warm_up()
        built = time.perf_counter()
        workload = tlb_trace(seed, accesses=accesses)
        build_s = time.perf_counter() - built
        setup = speed.seconds(mark)

        fast: List[dict] = []
        start = time.perf_counter()
        while len(fast) < min_repeats or (
            not trace
            and time.perf_counter() - start + _median([r["wall_s"] for r in fast]) <= seconds
        ):
            fast.append(_tlb_run(workload, fast_config, seed, speed))
        setups = [setup + fast[0]["factor"] * fast[0]["construct_s"]]
        setups += [_probe_setup("tlb_resident", seed, speed) for _ in range(setup_probes)]
        events = [_tlb_run(workload, event_config, seed) for _ in range(3 if trace else 1)]
        if trace:
            run, stats, traced = _profiled(
                lambda: _tlb_run(tlb_trace(seed, accesses=accesses), fast_config, seed)
            )

    reference = asdict(events[0]["result"])
    expected = workload.total_accesses()
    failures = []
    for i, r in enumerate(fast + events[1:]):
        if asdict(r["result"]) != reference:
            failures.append(f"run {i}: result differs from the event-path reference")
    if reference["accesses"] != expected:
        failures.append(f"event path retired {reference['accesses']} of {expected}")
    fast_p50 = _median([r["wall_s"] for r in fast])
    normalized_p50 = _median([r["wall_s"] * r["factor"] for r in fast])
    replayed = fast[0]["replayed"]
    out = {
        "ops": len(fast) + len(events),
        "ops_failed": len(failures),
        "failures": failures,
        "metrics": {
            "setup_s": _median(setups),
            "work_per_s": expected / normalized_p50,
            "latency_p50_s": normalized_p50,
            "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        },
        "details": {
            "repeats": len(fast),
            "host_accesses_per_s": expected / fast_p50,
            "speed_factor": normalized_p50 / fast_p50,
            "fastpath_replayed": f"{replayed}/{expected}",
            "model.digest": _digest([fast[0]["result"]]),
        },
    }
    if trace:
        untraced = build_s + fast[0]["construct_s"] + fast[0]["wall_s"]
        out["details"]["traced_wall_s"] = traced
        layers = _profile_layers(stats, traced)
        layers.update(_result_layers([run["result"]]))
        layers.update({
            "gpu.fastpath.replayed_frac": replayed / expected,
            "gpu.fastpath.accesses_per_call": _ratio(replayed, layers["gpu.fastpath.calls"]),
            "gpu.fastpath.speedup_vs_event":
                _median([r["wall_s"] for r in events]) / fast_p50,
            "trace.overhead_frac": traced / untraced - 1.0,
        })
        out["layers"] = _layer_report(layers)
    return out


# ---------------------------------------------------------------------------
# figure_grid: `repro figure` from a cold, then a warm cache
# ---------------------------------------------------------------------------


def _grid_args(figure: str, accesses: int, lanes: Optional[int], out: Path) -> List[str]:
    args = ["figure", figure, "--jobs", str(jobs()), "--accesses", str(accesses),
            "--json", str(out)]
    if lanes is not None:
        args += ["--lanes", str(lanes)]
    return args


def _grid_in_process(args: List[str], cache_dir: Path, seed: int) -> int:
    """``repro.cli.main(args)`` on a private cache, figure table muted."""
    from repro import cli

    with _environ(REPRO_CACHE_DIR=str(cache_dir), REPRO_SEED=str(seed)):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(args)


def figure_grid(seed: int, seconds: float, trace: bool, *, figure: str = "fig11",
                accesses: int = 600, lanes: Optional[int] = None,
                min_warm: int = 5) -> dict:
    """``repro figure fig11`` (54 simulations) on a private, fresh
    result cache: one cold invocation pays for supervisor start-up,
    dispatch and cache and journal writes; warm invocations, repeated
    while the budget lasts (at least ``min_warm``), pay only for cache
    reads and figure assembly.  Each warm series must equal the cold one
    byte for byte."""
    failures: List[str] = []
    work = _work_dir("grid-")
    try:
        # Single processes (``repro list``, warm figures) run pinned
        # beside the first probe and are normalised by it alone.
        with _speed(cpus(jobs())) as speed:
            setups = []
            for _ in range(3):
                mark = speed.mark()
                with _pinned(cpus(1)):
                    code, wall, err = _run_cli(["list"], child_env())
                setups.append(wall * speed.factor(mark, slot=0))
                if code != 0:
                    failures.append(f"repro list exited {code}: {err}")
            cache_dir = work / "cache"
            env = child_env(REPRO_CACHE_DIR=str(cache_dir), REPRO_SEED=str(seed))
            cold_json, warm_json = work / "cold.json", work / "warm.json"
            args = _grid_args(figure, accesses, lanes, cold_json)
            cpu_before = _children_cpu()
            mark = speed.mark()
            code, cold_s, err = _run_cli(args, env)
            cold_factor = speed.factor(mark)
            child_cpu = _children_cpu() - cpu_before
            if code != 0:
                failures.append(f"cold grid exited {code}: {err}")
            simulations = len(list(cache_dir.glob("*/*.pkl")))
            cold_bytes = cold_json.read_bytes() if cold_json.exists() else b""
            warm: List[float] = []
            mark = speed.mark()
            while len(warm) < min_warm or (
                not trace and time.perf_counter() - mark[0] + cold_s + _median(warm) <= seconds
            ):
                warm_json.unlink(missing_ok=True)
                with _pinned(cpus(1)):
                    code, wall, err = _run_cli(
                        _grid_args(figure, accesses, lanes, warm_json), env
                    )
                warm.append(wall)
                if code != 0:
                    failures.append(f"warm grid exited {code}: {err}")
                elif warm_json.read_bytes() != cold_bytes:
                    failures.append(f"warm series {len(warm)} differs from the cold one")
            warm_factor = speed.factor(mark, slot=0)
        out = {
            "ops": 1 + len(warm),
            "ops_failed": len(failures),
            "failures": failures,
            "metrics": {
                "setup_s": _median(setups),
                "work_per_s": simulations / (cold_s * cold_factor),
                "latency_p50_s": _median(warm) * warm_factor,
                "peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
            },
            "details": {
                "simulations": simulations, "grid_cold_s": cold_s,
                "grid_warm_s": _median(warm), "warm_runs": len(warm),
                "speed_factor": cold_factor,
            },
        }
        if trace:
            out["layers"] = _grid_layers(seed, work, args, cold_s, child_cpu)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _grid_layers(seed: int, work: Path, args: List[str], cold_s: float,
                 child_cpu: float) -> Dict[str, float]:
    """The grid's parent in-process under cProfile, with a per-thread
    CPU timer because it mostly waits for its workers: one cold and one
    warm run on a fresh cache.  The untraced cold invocation is the
    reference for the tracing overhead."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (timed: the import every invocation pays)
    import_s = time.perf_counter() - start

    profiler = cProfile.Profile(time.thread_time)
    walls = []
    for _ in ("cold", "warm"):
        start = time.perf_counter()
        profiler.enable()
        try:
            _grid_in_process(args, work / "traced", seed)
        finally:
            profiler.disable()
        walls.append(time.perf_counter() - start)
    stats = pstats.Stats(profiler).stats
    layers = _profile_layers(stats, sum(row[2] for row in stats.values()))
    cache_metrics, results = _cache_layers(work / "cache")
    layers.update(cache_metrics)
    layers.update(_result_layers(results))
    layers.update({
        "cli.import_s": import_s,
        "sweep.child_cpu_s": child_cpu,
        "sweep.cpu_util": child_cpu / (cold_s * jobs()),
        "trace.overhead_frac": walls[0] / cold_s - 1.0,
    })
    return _layer_report(layers)


# ---------------------------------------------------------------------------
# service_jobs: `repro serve` under a closed loop of two clients
# ---------------------------------------------------------------------------


def _request(port: int, method: str, path: str, payload=None, timeout: float = 120.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _await_terminal(port: int, job_id: str, timeout: float = 120.0) -> None:
    """Read the job's SSE stream until its terminal event."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        for raw in conn.getresponse():
            if raw.rstrip(b"\n") in (b"event: done", b"event: failed"):
                return
    finally:
        conn.close()


def _job_state(port: int, job_id: str) -> str:
    """Terminal state of a job as ``GET /jobs/{id}`` reports it."""
    status, body = _request(port, "GET", f"/jobs/{job_id}")
    return json.loads(body)["state"] if status == 200 else f"http {status}"


def _one_job(port: int, spec: dict) -> dict:
    """Submit, wait for the SSE terminal event, fetch the artifact."""
    start = time.perf_counter()
    status, body = _request(port, "POST", "/jobs", spec)
    admit_s = time.perf_counter() - start
    if status != 202:
        return {"error": f"POST /jobs returned {status}: {body[:200]!r}"}
    job_id = json.loads(body)["id"]
    _await_terminal(port, job_id)
    latency_s = time.perf_counter() - start
    state = _job_state(port, job_id)
    if state != "done":
        return {"error": f"job {job_id} ended {state}"}
    start = time.perf_counter()
    status, artifact = _request(port, "GET", f"/jobs/{job_id}/artifact")
    artifact_s = time.perf_counter() - start
    if status != 200:
        return {"error": f"artifact of {job_id} returned {status}"}
    return {"admit_s": admit_s, "latency_s": latency_s,
            "artifact_s": artifact_s, "artifact": artifact}


def _closed_loop(port: int, specs: List[dict], clients: int = 2) -> List[dict]:
    """``clients`` threads; each submits its next job only after the
    previous one reached its terminal event."""
    outcomes: List[Optional[dict]] = [None] * len(specs)
    cursor = iter(range(len(specs)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            try:
                outcomes[i] = _one_job(port, specs[i])
            except (OSError, ValueError, KeyError) as exc:
                outcomes[i] = {"error": f"job {i}: {exc!r}"}

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(170.0)
    return [o if o is not None else {"error": "client timed out"} for o in outcomes]


def service_specs(seed: int, rounds: int, per_round: int, accesses: int = 600) -> List[List[dict]]:
    """Distinct run jobs: apps cycled, both schemes, seeds from ``seed``."""
    from repro.workloads.suite import APP_ORDER

    base = random.Random(f"service:{seed}").randrange(1, 1_000_000)
    return [
        [
            {"app": APP_ORDER[i % len(APP_ORDER)],
             "scheme": ("broadcast", "idyll")[(i // len(APP_ORDER)) % 2],
             "gpus": 4, "lanes": 2, "accesses": accesses,
             "seed": base + 3 * r + i // (2 * len(APP_ORDER))}
            for i in range(per_round)
        ]
        for r in range(rounds)
    ]


class Server:
    """One ``repro serve`` process on an ephemeral port and a private
    cache; optionally under the per-thread profiler of this file."""

    def __init__(self, cache_dir: Path, profile_out: Optional[Path] = None) -> None:
        serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--jobs",
                 str(jobs()), "--cache-dir", str(cache_dir)]
        if profile_out is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(Path(__file__)),
                   "--profile-serve", str(profile_out), *serve]
        self._log = open(cache_dir.parent / f"{cache_dir.name}.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            # Unbuffered, or the address line waits in the pipe buffer.
            cmd, cwd=str(ROOT), env=child_env(PYTHONUNBUFFERED="1"),
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            if not match:
                raise RuntimeError(f"server did not announce its address: {line!r}")
            self.port = int(match.group(1))
            while True:
                try:
                    if _request(self.port, "GET", "/readyz", timeout=5.0)[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - start > 60.0:
                    raise RuntimeError("server never became ready")
                time.sleep(0.005)
            self.boot_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def stop(self) -> int:
        """SIGTERM (graceful drain); returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()
        return self.proc.returncode


def _service_round(server: Server, specs: List[dict],
                   speed: Optional[SpeedProbe] = None) -> dict:
    """The specs as misses, then the same specs again as cache hits."""
    mark = speed.mark() if speed else (time.perf_counter(), [])
    misses = _closed_loop(server.port, specs)
    miss_s = time.perf_counter() - mark[0]
    factor = speed.factor(mark) if speed else 1.0
    hits = _closed_loop(server.port, specs)
    return {"misses": misses, "hits": hits, "miss_s": miss_s, "factor": factor,
            "wall_s": time.perf_counter() - mark[0]}


def _round_failures(rnd: dict) -> List[str]:
    failures = [o["error"] for o in rnd["misses"] + rnd["hits"] if "error" in o]
    for i, (miss, hit) in enumerate(zip(rnd["misses"], rnd["hits"])):
        if "error" not in miss and "error" not in hit and miss["artifact"] != hit["artifact"]:
            failures.append(f"job {i}: hit artifact differs from its miss artifact")
    return failures


def _canonical_artifact(spec: dict) -> bytes:
    """The canonical JSON of an in-process ``simulate()`` of ``spec``."""
    from repro.config import InvalidationScheme, baseline_config
    from repro.experiments.runner import simulate
    from repro.metrics.export import result_to_json_bytes

    config = baseline_config(spec["gpus"]).with_scheme(InvalidationScheme(spec["scheme"]))
    result = simulate(spec["app"], config, lanes=spec["lanes"],
                      accesses_per_lane=spec["accesses"], seed=spec["seed"])
    return result_to_json_bytes(result)


def _latencies(rounds: List[dict], phase: str, field: str = "latency_s") -> List[float]:
    return [o[field] for r in rounds for o in r[phase] if "error" not in o]


def service_jobs(seed: int, seconds: float, trace: bool, *, per_round: int = 40,
                 accesses: int = 600) -> dict:
    """``repro serve --jobs min(2, nproc)`` on a private cache.  Each
    round, a closed loop of two clients submits ``per_round`` distinct
    run jobs (misses, which load the worker pool) and then the same
    jobs again (hits, which exercise only admission, queue, manager and
    cache).  Rounds repeat while the budget lasts (at least one).  Hit
    latency is not normalised: it waits on the server's scheduling
    tick, not on the CPU."""
    work = _work_dir("service-")
    try:
        failures: List[str] = []
        with _speed(cpus(jobs())) as speed:
            setups = []
            for k in range(2):
                mark = speed.mark()
                boot = Server(work / f"boot{k}")
                setups.append(boot.boot_s * speed.factor(mark))
                code = boot.stop()
                if code != 0:
                    failures.append(f"boot server {k} exited {code}")
            specs = service_specs(seed, 64, per_round, accesses)
            cpu_before, lifetime = _children_cpu(), time.perf_counter()
            mark = speed.mark()
            server = Server(work / "cache")
            setups.append(server.boot_s * speed.factor(mark))
            rounds: List[dict] = []
            try:
                start = time.perf_counter()
                while True:
                    rounds.append(_service_round(server, specs[len(rounds)], speed))
                    elapsed = time.perf_counter() - start
                    if (trace or elapsed + elapsed / len(rounds) > seconds
                            or len(rounds) == len(specs)):
                        break
                status, body = _request(server.port, "GET", "/metrics")
                counters = json.loads(body) if status == 200 else {}
            finally:
                code = server.stop()
        counters["cpu_util"] = (
            (_children_cpu() - cpu_before) / ((time.perf_counter() - lifetime) * jobs())
        )
        if code != 0:
            failures.append(f"server drain exited {code}")
        for rnd in rounds:
            failures.extend(_round_failures(rnd))
        first = rounds[0]["misses"][0]
        if "error" not in first and first["artifact"] != _canonical_artifact(specs[0][0]):
            failures.append("artifact differs from an in-process simulate() of its spec")

        misses = _latencies(rounds, "misses")
        miss_s = sum(r["miss_s"] for r in rounds)
        out = {
            "ops": sum(len(r["misses"]) + len(r["hits"]) for r in rounds),
            "ops_failed": len(failures),
            "failures": failures,
            "metrics": {
                "setup_s": _median(setups),
                "work_per_s": len(misses) / sum(r["miss_s"] * r["factor"] for r in rounds),
                "latency_p50_s": _median(_latencies(rounds, "hits")),
                "peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
            },
            "details": {
                "rounds": len(rounds),
                "host_jobs_per_s": _ratio(len(misses), miss_s),
                "speed_factor": rounds[0]["factor"],
            },
        }
        if trace:
            out["layers"] = _service_layers(rounds[0], counters, specs[1], work)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _service_layers(untraced: dict, counters: dict, specs: List[dict],
                    work: Path) -> Dict[str, float]:
    """A second server under the per-thread CPU profiler runs one more
    round; client-side latencies, CPU use and the ``/metrics`` counters
    come from the untraced server."""
    profile = work / "serve.prof"
    server = Server(work / "traced", profile_out=profile)
    try:
        traced = _service_round(server, specs)
    finally:
        server.stop()
    stats = pstats.Stats(str(profile)).stats
    layers = _profile_layers(stats, sum(row[2] for row in stats.values()))
    cache_metrics, results = _cache_layers(work / "cache")
    layers.update(cache_metrics)
    layers.update(_result_layers(results))
    misses = _latencies([untraced], "misses")
    hits = _latencies([untraced], "hits")
    layers.update({
        "service.admit_p50_s": _median(_latencies([untraced], "misses", "admit_s")
                                       + _latencies([untraced], "hits", "admit_s")),
        "service.artifact_p50_s": _median(_latencies([untraced], "hits", "artifact_s")),
        "service.job_miss_p50_s": _median(misses),
        "service.job_miss_p75_s": percentile(misses, 75),
        "service.job_hit_p75_s": percentile(hits, 75),
        "service.cpu_util": counters["cpu_util"],
        "service.queue_rejected": counters.get("queue_rejected", 0),
        "service.task_retries": counters.get("task_retries", 0),
        "service.worker_respawns": counters.get("worker_respawns", 0),
        "service.cache_hit_rate": counters.get("cache_hit_rate", 0.0),
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
    })
    return _layer_report(layers)


def _serve_profiled(out: Path, argv: List[str]) -> int:
    """``repro serve`` with a per-thread CPU profiler in every thread
    (``python -m cProfile`` sees only the main thread, which just waits
    for a signal); the merged profile is written to ``out`` on exit."""
    from repro import cli

    profilers: List[cProfile.Profile] = []
    lock = threading.Lock()

    def start_thread_profiler(*_args) -> None:
        profiler = cProfile.Profile(time.thread_time)
        with lock:
            profilers.append(profiler)
        profiler.enable()

    threading.setprofile(start_thread_profiler)
    main_profiler = cProfile.Profile(time.thread_time)
    main_profiler.enable()
    try:
        return cli.main(argv)
    finally:
        main_profiler.disable()
        threading.setprofile(None)
        merged = pstats.Stats(main_profiler)
        with lock:
            for profiler in profilers:
                merged.add(profiler)
        merged.dump_stats(str(out))


# ---------------------------------------------------------------------------
# Child entry point
# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Callable[..., dict]] = {
    "apps": apps,
    "tlb_resident": tlb_resident,
    "figure_grid": figure_grid,
    "service_jobs": service_jobs,
}

SETUP_ONLY = {"apps": _apps_setup_only, "tlb_resident": _tlb_setup_only}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--profile-serve"]:
        return _serve_profiled(Path(argv[1]), argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        result = {"setup_s": SETUP_ONLY[args.workload](args.seed)}
    else:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
