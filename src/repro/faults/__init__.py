"""Deterministic fault injection and runtime invariant auditing.

This package is the simulator's adversary: it perturbs the interconnect
(dropping, delaying, duplicating, and reordering invalidation/ack
messages), stalls GMMU walkers, and forces IRMB overflow pressure — all
from seeded RNG streams so every faulted run is exactly reproducible.
The :mod:`repro.faults.auditor` cross-checks directory state against
actual TLB/page-table/IRMB residency so any fault the shootdown protocol
fails to mask is caught immediately rather than surfacing as a silently
wrong result.  See DESIGN.md §6.

Trace-driven chaos campaigns (DESIGN.md §10) layer *episodic* failures
on top: :mod:`repro.faults.tracegen` generates seeded failure traces,
:mod:`repro.faults.schedule` replays them as time-varying fault
episodes with per-episode recovery metrics.
"""

from .auditor import InvariantViolation, audit_system, protocol_dump
from .injector import FaultInjector, MessagePlan
from .profiles import FAULT_PRESETS, parse_fault_spec
from .schedule import ChaosController, FaultTimeline, ScheduledFaultInjector
from .tracegen import generate_trace, load_trace, save_trace

__all__ = [
    "FaultInjector",
    "MessagePlan",
    "InvariantViolation",
    "audit_system",
    "protocol_dump",
    "FAULT_PRESETS",
    "parse_fault_spec",
    "FaultTimeline",
    "ScheduledFaultInjector",
    "ChaosController",
    "generate_trace",
    "save_trace",
    "load_trace",
]
