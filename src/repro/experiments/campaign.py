"""Chaos-campaign driver: long-horizon failure-trace runs with
per-episode recovery metrics.

A *campaign* replays a workload while a failure trace (see
:mod:`repro.faults.tracegen`) schedules link outages, degraded-loss
windows, walker-stall storms, and IRMB-pressure waves.  The driver:

* arms the liveness supervisors by default (a campaign without a
  watchdog would deadlock on any abandoned invalidation, since the base
  fault rates are usually zero and the supervisors key off them);
* supports periodic checkpointing and mid-episode resume (the timeline
  cursor and open episode records are part of the pickled system);
* condenses the run into a JSON-serialisable campaign report —
  per-episode time-to-recover, retry/degradation deltas, watchdog
  near-misses, audit results, and per-link injection attribution.

Deterministic end to end: same (trace, workload, config, seed) →
byte-identical report.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Optional, Tuple

from ..config import ChaosTraceSpec, FaultConfig, SystemConfig
from ..gpu.system import MultiGPUSystem
from ..interconnect.topology import link_names
from ..metrics.collector import SimulationResult
from .runner import build_app_workload

__all__ = [
    "campaign_config", "run_campaign", "campaign_report",
    "write_report", "format_report",
]


def campaign_config(
    base: SystemConfig,
    trace: ChaosTraceSpec,
    faults: Optional[FaultConfig] = None,
) -> SystemConfig:
    """Attach ``trace`` to ``base`` with campaign-safe supervisor
    defaults: unless explicitly set, the watchdog and quiesce audit are
    armed even when all uniform fault rates are zero (their usual
    auto-arming keys off those rates, and a campaign's failures come
    from the trace instead)."""
    fc = faults if faults is not None else base.faults
    overrides = {}
    if fc.watchdog_enabled is None:
        overrides["watchdog_enabled"] = True
    if fc.audit_on_quiesce is None:
        overrides["audit_on_quiesce"] = True
    if overrides:
        fc = replace(fc, **overrides)
    return base.with_faults(fc).with_chaos(trace)


def run_campaign(
    app: str,
    config: SystemConfig,
    *,
    lanes: int,
    accesses_per_lane: int,
    seed: int,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
) -> Tuple[MultiGPUSystem, SimulationResult]:
    """Run (or resume) one chaos campaign; returns ``(system, result)``.

    Campaigns always bypass the memoising experiment runner: the system
    object is part of the product (abort dumps, the campaign report),
    and checkpointed runs must keep their controller reachable.
    """
    if resume_from is not None:
        from ..sim.snapshot import resume_run

        return resume_run(
            resume_from,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
        )
    workload = build_app_workload(
        app,
        num_gpus=config.num_gpus,
        page_size=config.page_size,
        scale=1.0,
        lanes=lanes,
        accesses_per_lane=accesses_per_lane,
        seed=seed,
    )
    system = MultiGPUSystem(config, seed=seed)
    result = system.run(
        workload,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
    )
    return system, result


def _link_attribution(system) -> dict:
    """Per-link chaos effect counters (only links that saw any)."""
    out = {}
    for name in link_names(system.config.num_gpus):
        link = system.interconnect.link(name)
        effects = {
            cname.split(".", 1)[1]: counter.value
            for cname, counter in sorted(link.stats.counters.items())
            if cname.startswith("chaos.") and counter.value
        }
        if effects:
            out[name] = effects
    return out


def campaign_report(system, result: SimulationResult) -> dict:
    """Condense a finished campaign into a JSON-serialisable report."""
    spec = system.config.chaos_trace
    report = {
        "workload": result.workload,
        "scheme": result.scheme,
        "num_gpus": result.num_gpus,
        "seed": system.seed,
        "exec_time": result.exec_time,
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
        "trace": {
            "seed": spec.seed if spec is not None else None,
            "horizon": spec.horizon if spec is not None else None,
            "fingerprint": spec.fingerprint if spec is not None else None,
            "episodes": len(spec.episodes) if spec is not None else 0,
        },
        "protocol": {
            "inval_retries": result.inval_retries,
            "inval_timeouts": result.inval_timeouts,
            "inval_abandoned": result.inval_abandoned,
            "inval_degraded": result.inval_degraded,
            "inval_duplicates": result.inval_duplicates,
            "audits_run": result.audits_run,
            "faults_injected": result.faults_injected,
        },
        "links": _link_attribution(system),
    }
    report["campaign"] = (
        system.chaos.report() if system.chaos is not None else None
    )
    return report


def write_report(report: dict, path) -> Path:
    """Write a report as canonical JSON (byte-deterministic)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def format_report(report: dict) -> str:
    """Human-readable campaign summary."""
    lines = [
        f"chaos campaign: {report['workload']} on {report['num_gpus']} GPUs "
        f"(scheme={report['scheme']}, seed={report['seed']})",
        f"  trace: {report['trace']['episodes']} episodes over "
        f"{report['trace']['horizon']} cycles "
        f"(fingerprint {report['trace']['fingerprint']})",
        f"  exec_time: {report['exec_time']:,} cycles"
        + ("  ** ABORTED: " + report["abort_reason"] if report["aborted"] else ""),
    ]
    camp = report.get("campaign")
    if camp is not None:
        lines.append(
            f"  episodes: {camp['episodes_run']} run, "
            f"{camp['episodes_recovered']} recovered, "
            f"{camp['episodes_skipped']} skipped "
            f"(of {camp['episodes_total']} in trace)"
        )
        lines.append(
            f"  recovery: mean {camp['time_to_recover_mean']:.0f} cycles, "
            f"max {camp['time_to_recover_max']:,} cycles; "
            f"{camp['watchdog_near_misses']} watchdog near-miss poll(s); "
            f"{camp['audit_violations']} audit violation(s)"
        )
        lines.append(
            f"  injected: {camp['faults_injected']} chaos fault(s); protocol "
            f"retries={report['protocol']['inval_retries']} "
            f"timeouts={report['protocol']['inval_timeouts']} "
            f"abandoned={report['protocol']['inval_abandoned']} "
            f"degraded={report['protocol']['inval_degraded']}"
        )
        for ep in camp["episodes"]:
            ttr = (
                f"recovered in {ep['time_to_recover']:,}"
                if ep["recovered"]
                else "NOT RECOVERED"
            )
            inj = sum(ep["injected"].values())
            lines.append(
                f"    #{ep['eid']:>3} {ep['kind']:<18} {ep['target']:<12} "
                f"[{ep['start']:>8},{ep['end']:>8}) sev={ep['severity']:.2f} "
                f"inj={inj:<4} {ttr}"
            )
    if report["links"]:
        lines.append("  per-link attribution:")
        for name, effects in sorted(report["links"].items()):
            pretty = ", ".join(f"{k}={v}" for k, v in sorted(effects.items()))
            lines.append(f"    {name:<14} {pretty}")
    return "\n".join(lines)
