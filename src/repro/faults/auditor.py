"""Runtime invariant auditors for the translation-coherence protocol.

The auditors cross-check the *claimed* state (directory bits, host page
table) against the *actual* state (TLB contents, GPU-local page tables,
IRMB residency) so that any fault the shootdown protocol fails to mask is
caught as a loud, diagnosable abort instead of a silently wrong result.

Checked invariants:

1. **Physical consistency** — every valid host PTE points at a frame
   that is resident on the owning GPU and maps back to the same VPN.
2. **Directory coverage** — whenever a GPU holds a usable translation
   (a TLB entry or a valid local PTE), the residency directory names it
   as a holder.  Aliasing false positives are fine; a false *negative*
   would let a migration skip that GPU's shootdown.
3. **No stale translation** — every translation a GPU could serve
   resolves to the same frame the host page table currently maps.

Each check tolerates the protocol's legitimate transient windows: pages
gated mid-migration, invalidations in flight (the driver's
:class:`~repro.uvm.protocol.InvalidationTracker`), invalidations
buffered lazily in the IRMB, read replicas, the driver's
explicitly counted stale-reply acceptances, and a stale local PTE (never
a TLB entry) while the GPU's L2 TLB MSHR holds its page.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..memory import pte as pte_bits
from ..memory.physmem import pte_owner
from ..sim.engine import SimulationAbort

__all__ = ["InvariantViolation", "AuditLoop", "audit_system", "protocol_dump"]

#: cap on violations reported per audit (the first few tell the story).
MAX_REPORTED = 20


class InvariantViolation(SimulationAbort):
    """An invariant auditor caught the simulator serving or about to
    serve inconsistent translation state."""


def _residency(gpu) -> Iterator[Tuple[int, int, str]]:
    """Every (vpn, pte_word, where) translation ``gpu`` could serve."""
    for i, l1 in enumerate(gpu.l1_tlbs):
        for vpn, word in l1.resident():
            yield vpn, word, f"l1tlb{i}"
    for vpn, word in gpu.l2_tlb.resident():
        yield vpn, word, "l2tlb"
    for vpn in gpu.page_table.valid_vpns():
        yield vpn, gpu.page_table.entry(vpn), "page_table"


def _excuse(system, gpu_id: int, vpn: int, lazy_pending) -> Optional[str]:
    """Why a seemingly inconsistent (gpu, vpn) is legitimately in flux."""
    driver = system.driver
    if vpn in driver._gates:
        return "migration in flight"
    if driver.tracker.is_pending_pair(gpu_id, vpn):
        return "invalidation in flight"
    if vpn in lazy_pending:
        return "invalidation buffered in IRMB"
    if (gpu_id, vpn) in driver._stale_accepted:
        return "stale reply deliberately accepted"
    return None


def audit_system(system) -> List[str]:
    """Run every invariant check; returns the violations found (empty
    means the system is consistent).

    The result is also left on ``system.last_violations`` so post-abort
    diagnostics (``repro chaos dump``) can anchor on the violating VPNs
    without re-parsing the abort message."""
    violations = _audit_checks(system)
    system.last_violations = list(violations)
    return violations


def _audit_checks(system) -> List[str]:
    violations: List[str] = []

    def report(message: str) -> bool:
        violations.append(message)
        return len(violations) >= MAX_REPORTED

    driver = system.driver
    host_pt = driver.host_page_table
    directory = driver.directory

    # 1. Physical consistency of the authoritative host page table.
    for vpn in host_pt.valid_vpns():
        word = host_pt.entry(vpn)
        ppn = pte_bits.ppn(word)
        owner = pte_owner(word)
        if not 0 <= owner < len(system.gpus):
            if report(f"host PTE vpn={vpn:#x} points at nonexistent gpu{owner}"):
                return violations
            continue
        mapped = system.gpus[owner].memory.vpn_of(ppn)
        if mapped != vpn:
            if report(
                f"host PTE vpn={vpn:#x} -> ppn={ppn:#x} on gpu{owner}, but that "
                f"frame is {'free' if mapped is None else f'resident for vpn={mapped:#x}'}"
            ):
                return violations

    # 2 + 3. Per-GPU residency versus directory and host truth.
    for gpu in system.gpus:
        lazy_pending = gpu.lazy.pending_vpns() if gpu.lazy is not None else frozenset()
        holders_cache: Dict[int, bool] = {}
        seen: set = set()
        for vpn, word, where in _residency(gpu):
            key = (vpn, word, where)
            if key in seen:
                continue
            seen.add(key)

            excuse = None
            excuse_known = False

            if directory is not None:
                covered = holders_cache.get(vpn)
                if covered is None:
                    covered = gpu.gpu_id in directory.peek_holders(vpn)
                    holders_cache[vpn] = covered
                if not covered:
                    excuse = _excuse(system, gpu.gpu_id, vpn, lazy_pending)
                    excuse_known = True
                    if excuse is None:
                        if report(
                            f"gpu{gpu.gpu_id} holds vpn={vpn:#x} in {where} but the "
                            f"directory does not list it as a holder"
                        ):
                            return violations

            host_word = host_pt.translate(vpn)
            stale = host_word is None or pte_bits.ppn(host_word) != pte_bits.ppn(word)
            if stale and driver.replicas.has_replica(vpn, gpu.gpu_id):
                stale = pte_bits.ppn(word) != driver.replicas.replica_ppn(vpn, gpu.gpu_id)
            if stale:
                if not excuse_known:
                    excuse = _excuse(system, gpu.gpu_id, vpn, lazy_pending)
                if excuse is None and where == "page_table" and vpn in gpu.l2_mshr:
                    # Only the MSHR's primary walks the local PTE, and a
                    # stale word it reads lands in a (never excused) TLB;
                    # an IRMB-bypass far fault holds it until it installs.
                    excuse = "L2 MSHR holds the page"
                if excuse is None:
                    host_desc = (
                        "no valid host mapping" if host_word is None
                        else f"host maps ppn={pte_bits.ppn(host_word):#x}"
                    )
                    if report(
                        f"gpu{gpu.gpu_id} can serve stale vpn={vpn:#x} from {where} "
                        f"(ppn={pte_bits.ppn(word):#x}, {host_desc})"
                    ):
                        return violations

    return violations


class AuditLoop:
    """Periodic audits every ``interval`` cycles while ``active_fn()``
    holds; raises :class:`InvariantViolation` on the first inconsistent
    snapshot.  :meth:`start` arms it; each :meth:`tick` arms the next."""

    def __init__(self, system, interval: int, active_fn: Callable[[], bool]) -> None:
        self.system = system
        self.interval = interval
        self.active_fn = active_fn

    def start(self) -> None:
        """The first audit comes ``interval`` cycles after the
        ready-queue entry this makes runs."""
        engine = self.system.engine
        engine.schedule(0, engine.defer, self.interval, self.tick)

    def tick(self) -> None:
        system = self.system
        engine = system.engine
        if not self.active_fn():
            return
        system.audits_run += 1
        violations = audit_system(system)
        if violations:
            if engine.tracer.enabled:
                engine.tracer.emit("audit.fail", "auditor", count=len(violations))
            raise InvariantViolation(
                f"invariant audit failed at cycle {engine.now}: {violations[0]}"
                + (f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""),
                dump=protocol_dump(system, violations),
            )
        if engine.tracer.enabled:
            engine.tracer.emit("audit.pass", "auditor")
        engine.defer(self.interval, self.tick)


def protocol_dump(system, violations: Optional[List[str]] = None) -> str:
    """Human-readable snapshot of the protocol state for abort reports."""
    driver = system.driver
    lines: List[str] = [f"=== protocol state at cycle {system.engine.now} ==="]
    if violations:
        lines.append("violations:")
        lines.extend(f"  {v}" for v in violations)
    lines.append(driver.tracker.dump())
    gates = sorted(driver._gates)
    lines.append(
        "migration gates closed: "
        + (", ".join(f"{vpn:#x}" for vpn in gates) if gates else "none")
    )
    for gpu in system.gpus:
        tlb_entries = sum(l1.occupancy() for l1 in gpu.l1_tlbs) + gpu.l2_tlb.occupancy()
        parts = [
            f"gpu{gpu.gpu_id}: tlb_entries={tlb_entries}",
            f"pt_valid={sum(1 for _ in gpu.page_table.valid_vpns())}",
        ]
        if gpu.lazy is not None:
            parts.append(f"irmb_pending={len(gpu.lazy.pending_vpns())}")
        parts.append(f"gmmu_load={gpu.gmmu.load}")
        lines.append("  ".join(parts))
    injector = getattr(system, "injector", None)
    if injector is not None and injector.enabled:
        lines.append(injector.summary())
    counters = driver.stats
    lines.append(
        "driver: "
        + ", ".join(
            f"{name}={counters.counter(name).value}"
            for name in (
                "invalidations_sent", "inval_retries", "inval_timeouts",
                "inval_abandoned", "far_faults", "migrations",
            )
        )
    )
    return "\n".join(lines)
