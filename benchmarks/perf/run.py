"""The simulator's benchmark.

    python benchmarks/perf/run.py [--workload NAME] [--seed 7]
        [--seconds S] [--trace [0|1]] [--out FILE]

Runs each workload named in ``BENCHMARK.json`` (or only ``--workload``)
in a fresh child process, one after another, and measures the program
from outside: nothing under ``src/`` is changed or instrumented.  For
each workload it prints every metric by name with its unit, then one
JSON line::

    {"correct": true, "attempted": 18, "failed": 0,
     "metrics": {"setup_s": {"value": 1.9, "unit": "s"}, ...}}

Untraced runs report the end-to-end metrics; ``--trace`` runs report
the per-layer ones.  The whole report, with the host it ran on, goes to
``--out`` (default ``.bench_build/perf/result.json``).  The exit code is
1 when a correctness check failed and 2 when the program or a workload
could not be run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

from workloads import PACKAGE, ROOT, child_env, load_spec

HERE = Path(__file__).resolve().parent

#: per-child limit; a run of one workload must end within 180 s.
CHILD_TIMEOUT_S = 170.0


def host_meta() -> dict:
    """What a result depends on besides the code: the host and versions."""
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh child process; returns its result.

    The child leads its own process group, so every process it started
    is gone when this returns, whatever happened to the child."""
    work_root = ROOT / ".bench_build" / "perf"
    work_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        out = Path(tmp) / "result.json"
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out)],
            cwd=str(ROOT), env=child_env(), stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code is None:
            raise RuntimeError(f"{name}: no result within {CHILD_TIMEOUT_S:.0f} s")
        if code != 0 or not out.exists():
            raise RuntimeError(f"{name}: workload process exited {code}")
        return json.loads(out.read_text())


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    """The one-line JSON result: every end-to-end metric of the spec
    (untraced) or every per-layer metric (traced), with its unit."""
    section = result["layers"] if trace else result["metrics"]
    metrics = {
        m["name"]: {"value": section[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    return {
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    }


def print_table(name: str, result: dict, line: dict) -> None:
    print(f"== {name}: {line['attempted']} ops, {line['failed']} failed")
    for metric, entry in line["metrics"].items():
        print(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in result.get("details", {}).items():
        print(f"  {key:<34} {value}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: Optional[list] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the simulator's benchmark.")
    parser.add_argument("--workload", choices=names,
                        help="run only this workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measurement budget per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".bench_build" / "perf" / "result.json")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print("error: the simulator sources (src/repro) are missing", file=sys.stderr)
        return 2

    report = {"host": host_meta(), "seed": args.seed, "seconds": args.seconds,
              "trace": bool(args.trace), "workloads": {}}
    correct = True
    for name in [args.workload] if args.workload else names:
        start = time.perf_counter()
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result["wall_s"] = time.perf_counter() - start
        line = result_line(result, spec, bool(args.trace))
        report["workloads"][name] = {**result, "line": line}
        correct = correct and line["correct"]
        print_table(name, result, line)
        print(json.dumps(line), flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
