"""Differential fuzzing of the replay tiers.

The two-tier replay core promises observational equivalence: for any
workload and configuration, the pure event path and the batched fast
path produce *identical* collected statistics, field for field.  The
20-seed suite in ``tests/gpu/test_fastpath.py`` checks hand-picked
corners; this module is the adversarial arm — it draws random
``(config, seed, topology)`` triples from a much wider space
(degenerate batch limits, single-entry windows, empty and
single-access lanes, 1–8 GPUs, both invalidation schemes) and diffs
the two tiers.

On a mismatch the harness prints a **minimal repro spec**: a one-line
JSON document that replays the exact failing triple via
``repro fuzz --spec '<json>'`` (or :func:`check_spec` from code), so a
fuzz failure in CI is immediately actionable without re-running the
whole campaign.

Variants compared per spec:

* ``event``    — fast path disabled (the reference tier);
* ``fastpath`` — batched replay of parked lanes.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..config import InvalidationScheme, baseline_config
from ..workloads.base import Workload

__all__ = ["FuzzSpec", "build_workload", "run_variants", "check_spec", "fuzz"]

_BASE_VPN = 1 << 20

_SCHEMES = {
    "idyll": InvalidationScheme.IDYLL,
    "broadcast": InvalidationScheme.BROADCAST,
}


@dataclass(frozen=True)
class FuzzSpec:
    """One reproducible fuzz case: everything needed to rebuild the
    workload and every config variant."""

    seed: int
    num_gpus: int = 2
    lanes: int = 2
    accesses: int = 60
    shared_pages: int = 24
    private_pages: int = 8
    scheme: str = "idyll"
    batch_limit: int = 4096
    inflight_per_cu: int = 4
    sim_seed: int = 7

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzSpec":
        data = json.loads(text)
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown FuzzSpec fields: {sorted(unknown)}")
        return cls(**data)


def build_workload(spec: FuzzSpec) -> Workload:
    """Mixed shared/private trace (the shared pages force remote
    accesses, migrations and shootdowns; the private pages give the
    fast path something to replay), deterministic in ``spec.seed``.

    ``accesses`` may be 0 (empty lanes) or 1 (single-access lanes) —
    both are corners the replay tiers must survive.
    """
    rng = random.Random(spec.seed)
    traces = []
    for g in range(spec.num_gpus):
        gpu_traces = []
        for lane in range(spec.lanes):
            private_base = (
                _BASE_VPN
                + spec.shared_pages
                + (g * spec.lanes + lane) * spec.private_pages
            )
            records = []
            for _ in range(spec.accesses):
                if spec.shared_pages and rng.random() < 0.5:
                    vpn = _BASE_VPN + rng.randrange(spec.shared_pages)
                else:
                    vpn = private_base + rng.randrange(spec.private_pages)
                records.append((rng.randrange(8), vpn, rng.random() < 0.3))
            gpu_traces.append(records)
        traces.append(gpu_traces)
    return Workload(name=f"fuzz{spec.seed}", traces=traces)


def _variant_configs(spec: FuzzSpec) -> List[Tuple[str, object]]:
    base = dataclasses.replace(
        baseline_config(num_gpus=spec.num_gpus).with_scheme(
            _SCHEMES[spec.scheme]
        ),
        trace_lanes=spec.lanes,
        inflight_per_cu=spec.inflight_per_cu,
        fastpath_batch_limit=spec.batch_limit,
    )
    return [("event", base.with_fastpath(False)), ("fastpath", base)]


def run_variants(spec: FuzzSpec) -> Dict[str, Dict[str, object]]:
    """Run every replay-tier variant for ``spec``; returns label →
    collected-stats dict."""
    from ..gpu.system import MultiGPUSystem

    workload = build_workload(spec)
    out: Dict[str, Dict[str, object]] = {}
    for label, config in _variant_configs(spec):
        system = MultiGPUSystem(config, seed=spec.sim_seed)
        out[label] = asdict(system.run(workload))
    return out


def check_spec(spec: FuzzSpec) -> Optional[str]:
    """Returns None when all variants agree field-for-field, else a
    human-readable diff report ending in the minimal repro spec."""
    results = run_variants(spec)
    reference = results["event"]
    lines: List[str] = []
    for label, stats in results.items():
        if label == "event":
            continue
        diff = {
            k: (stats[k], reference[k])
            for k in reference
            if stats[k] != reference[k]
        }
        if diff:
            lines.append(f"  {label} vs event:")
            for k, (got, want) in sorted(diff.items()):
                lines.append(f"    {k}: {got!r} != {want!r}")
    if not lines:
        return None
    return (
        "replay tiers diverged:\n"
        + "\n".join(lines)
        + "\nrepro: repro fuzz --spec '" + spec.to_json() + "'"
    )


def random_specs(runs: int, master_seed: int) -> Iterator[FuzzSpec]:
    """The fuzz distribution: biased toward the corners that have
    historically broken replay tiers — degenerate batch limits, tiny
    windows, empty/single-access lanes, many GPUs."""
    rng = random.Random(master_seed)
    for _ in range(runs):
        accesses = rng.choice([0, 1, 2, 8, 30, 60, 90])
        yield FuzzSpec(
            seed=rng.randrange(1 << 30),
            num_gpus=rng.choice([1, 2, 4, 8]),
            lanes=rng.choice([1, 2, 3]),
            accesses=accesses,
            shared_pages=rng.choice([0, 8, 24]),
            private_pages=rng.choice([4, 8]),
            scheme=rng.choice(["idyll", "broadcast"]),
            batch_limit=rng.choice(
                [1, 2, 3, 7, max(1, accesses - 1), 4096]
            ),
            inflight_per_cu=rng.choice([1, 2, 4, 8]),
            sim_seed=rng.choice([7, 11]),
        )


def fuzz(runs: int, master_seed: int, progress=None) -> List[str]:
    """Run ``runs`` random specs; returns the failure reports (empty on
    a clean campaign).  ``progress`` is an optional callable invoked as
    ``progress(i, runs, spec)`` before each case."""
    failures: List[str] = []
    for i, spec in enumerate(random_specs(runs, master_seed)):
        if progress is not None:
            progress(i, runs, spec)
        report = check_spec(spec)
        if report is not None:
            failures.append(report)
    return failures
