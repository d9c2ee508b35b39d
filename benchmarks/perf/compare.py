"""Compare benchmark results of a parent and a change.

    python benchmarks/perf/compare.py --parent P1.json ... --change C1.json ...

Each file is a ``run.py --out`` report; list both sides in the same
seed order, because run i of the parent is paired with run i of the
change.  Bounds and directions come from ``BENCHMARK.json``.  One row
per workload x end-to-end metric shows both sides' median and
quartiles, their spread (quartile distance over median), the change's
pair win rate, and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ, in its favour, by more than the
  parent's quartile distance;
* ``unresolved``: a side's spread is wider than the bound, unless every
  run of the change reads better than every run of the parent;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``within bound``: otherwise.

A ``failed`` row per workload compares ``failed / attempted``; more
failures than the parent is a regression.  Exits 1 when any row
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

from workloads import load_spec


def quartiles(values: List[float]):
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> dict:
    """Medians, quartiles, spreads, pair win rate and verdict of one
    metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread_p = (p3 - p1) / pm if pm else 0.0
    spread_c = (c3 - c1) / cm if cm else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    worse_by = -sign * (cm - pm) / pm if pm else 0.0
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        outcome = "improved"
    elif max(spread_p, spread_c) > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regressed"
    else:
        outcome = "within bound"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "spread": (spread_p, spread_c), "wins": wins, "pairs": len(pairs),
        "verdict": outcome,
    }


def _load(paths: List[Path]) -> List[dict]:
    return [json.loads(Path(p).read_text())["workloads"] for p in paths]


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        run[workload]["line"]["metrics"][metric]["value"]
        for run in runs if workload in run
    ]


def compare(parent_paths: List[Path], change_paths: List[Path],
            spec: Optional[dict] = None) -> List[dict]:
    spec = spec or load_spec()
    parent, change = _load(parent_paths), _load(change_paths)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if not any(workload in r for r in parent) or not any(workload in r for r in change):
            continue
        for metric in spec["end_to_end"]:
            row = verdict(
                _values(parent, workload, metric["name"]),
                _values(change, workload, metric["name"]),
                metric["better"], metric["bound"],
            )
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "bound": metric["bound"], **row})
        failed: Dict[str, float] = {}
        for side, runs in (("parent", parent), ("change", change)):
            lines = [r[workload]["line"] for r in runs if workload in r]
            failed[side] = (sum(l["failed"] for l in lines)
                            / max(1, sum(l["attempted"] for l in lines)))
        rows.append({
            "workload": workload, "metric": "failed", "unit": "ratio",
            "parent_failed": failed["parent"], "change_failed": failed["change"],
            "verdict": "regressed" if failed["change"] > failed["parent"] else "within bound",
        })
    return rows


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change results.")
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    print(f"{'workload':<13} {'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'spread p/c':<13} {'wins':<7} verdict")
    for row in rows:
        if row["metric"] == "failed":
            print(f"{row['workload']:<13} {'failed':<14} {row['parent_failed']:<34.4g} "
                  f"{row['change_failed']:<34.4g} {'':<13} {'':<7} {row['verdict']}")
            continue
        spread = f"{row['spread'][0]:.3f}/{row['spread'][1]:.3f}"
        print(f"{row['workload']:<13} {row['metric']:<14} {_fmt(row['parent']):<34} "
              f"{_fmt(row['change']):<34} {spread:<13} "
              f"{row['wins']}/{row['pairs']:<5} {row['verdict']} (bound {row['bound']:g})")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
