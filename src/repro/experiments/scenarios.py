"""Canonical small scenarios for the golden-trace regression harness.

Each scenario is a tiny, fully deterministic simulation whose complete
event trace is recorded into a :class:`~repro.sim.trace.TraceRecorder`
and compared byte-for-byte against a checked-in fixture
(``tests/golden/<name>.jsonl``).  Aggregate counters can stay unchanged
while the event sequence silently drifts; these traces pin down the
*mechanism* — which TLB missed, which walk ran, which invalidation
merged — so any behavioural change in the translation pipeline shows up
as a fixture diff.

Scenarios:

``single_gpu_demand_fault``
    One GPU, one lane, hand-written accesses: cold far faults on first
    touch, TLB hits on re-touch.  Exercises L1/L2 TLB, demand walks,
    and the far-fault path with no cross-GPU traffic.

``cross_gpu_migration``
    Two GPUs under full IDYLL: GPU 0 first-touches a page, GPU 1 hammers
    it remotely until the access counter triggers a migration with a
    directory-filtered invalidation (dir.lookup → inval.send → IRMB).

``irmb_merge_then_evict``
    Component-level IRMB + lazy controller with a 2×4 geometry: inserts
    that merge into one base, overflow the offset slots (offset
    eviction), overflow the base array (LRU base eviction), then a
    final flush.

``faulted_invalidation_retry``
    Two GPUs under IDYLL with a seeded fault profile dropping, delaying,
    and duplicating invalidation/ack packets while pages ping-pong.
    Pins the *recovery* trace: ``fault.inject`` → ``inval.timeout`` →
    ``inval.retry`` → idempotent dedup → eventual ack, with the quiesce
    audit confirming no stale translation survives.

Regenerate fixtures with ``python -m repro golden --update`` after any
intentional behaviour change (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List

from ..config import InvalidationScheme, baseline_config
from ..gmmu.gmmu import GMMU
from ..gpu.system import MultiGPUSystem
from ..memory.address import AddressLayout
from ..memory.page_table import PageTable
from ..memory import pte as pte_bits
from ..sim.engine import Engine
from ..sim.trace import TraceRecorder
from ..workloads.base import Workload
from ..config import IRMBConfig
from ..core.irmb import IRMB
from ..core.lazy import LazyInvalidationController

__all__ = ["SCENARIOS", "run_scenario", "scenario_lines"]

#: page numbers well inside the application region used by the suite.
_BASE_VPN = 1 << 20


def _tiny_config(num_gpus: int, scheme: InvalidationScheme):
    return replace(
        baseline_config(num_gpus).with_scheme(scheme),
        trace_lanes=1,
        inflight_per_cu=4,
    )


def single_gpu_demand_fault(tracer: TraceRecorder) -> None:
    """One GPU: cold demand faults, then warm TLB hits."""
    pages = [_BASE_VPN + i for i in range(4)]
    trace = [(10, vpn, False) for vpn in pages]       # cold: far faults
    trace += [(5, vpn, True) for vpn in pages]        # warm: TLB hits
    trace += [(5, pages[0], False), (5, pages[3], False)]
    workload = Workload(name="golden-demand-fault", traces=[[trace]])
    config = _tiny_config(1, InvalidationScheme.BROADCAST)
    MultiGPUSystem(config, seed=7, tracer=tracer).run(workload)


def cross_gpu_migration(tracer: TraceRecorder) -> None:
    """Two GPUs under IDYLL: remote accesses trigger a migration whose
    shootdown is directory-filtered and lazily applied via the IRMB."""
    hot = _BASE_VPN
    private0 = _BASE_VPN + 100
    private1 = _BASE_VPN + 200
    # GPU 0 first-touches the hot page and its private page.
    trace0 = [(10, hot, True), (10, private0, False), (20, hot, False)]
    # GPU 1 works privately, then hammers the hot page remotely until the
    # access counter (effective threshold 2) requests a migration.
    trace1 = [(10, private1, False)] + [(30, hot, False) for _ in range(6)]
    workload = Workload(name="golden-migration", traces=[[trace0], [trace1]])
    config = _tiny_config(2, InvalidationScheme.IDYLL)
    MultiGPUSystem(config, seed=7, tracer=tracer).run(workload)


def irmb_merge_then_evict(tracer: TraceRecorder) -> None:
    """Component-level IRMB: merge, offset eviction, base eviction, flush."""
    engine = Engine(tracer=tracer)
    layout = AddressLayout(4096, levels=4)
    page_table = PageTable(layout, "golden.pt")
    config = _tiny_config(1, InvalidationScheme.LAZY)
    gmmu = GMMU(engine, config.gmmu, page_table, "golden.gmmu")
    irmb = IRMB(
        IRMBConfig(bases=2, offsets_per_base=4), layout, "golden.irmb", tracer=tracer
    )
    lazy = LazyInvalidationController(engine, irmb, gmmu, "golden.lazy",
                                      idle_writeback=False)

    base_a = _BASE_VPN & ~0x1FF            # 512-aligned: one IRMB base
    base_b = (_BASE_VPN + (1 << 12)) & ~0x1FF
    base_c = (_BASE_VPN + (2 << 12)) & ~0x1FF
    vpns = [base_a + off for off in (0, 1, 2, 3, 4)]   # 5th overflows offsets
    vpns += [base_b + 7, base_c + 9]                   # 3rd base overflows bases
    for vpn in vpns:
        page_table.set_entry(vpn, pte_bits.make_pte(vpn & 0xFFFF))

    def script(step: int) -> None:
        """Accept one invalidation every 50 cycles, then probe and flush."""
        if step < len(vpns):
            lazy.accept_invalidation(vpns[step])
            engine.defer(50, script, step + 1)
            return
        # A probe by a demand miss hits the buffered invalidation.
        lazy.probe(base_b + 7)
        # Drain whatever is still merged.
        engine.schedule(0, lazy.flush)

    engine.schedule(0, script, 0)
    engine.run()


def faulted_invalidation_retry(tracer: TraceRecorder) -> None:
    """Two GPUs under IDYLL with message faults: a hot page ping-pongs
    between the GPUs while the injector drops/delays/duplicates the
    shootdown traffic, forcing the shootdown protocol through timeouts,
    retries, and duplicate-suppression — and still completing with a
    clean quiesce audit."""
    hot = _BASE_VPN
    private0 = _BASE_VPN + 100
    private1 = _BASE_VPN + 200
    trace0 = [(10, hot, True), (10, private0, False)]
    trace0 += [(30, hot, False) for _ in range(8)]
    trace1 = [(10, private1, False)] + [(25, hot, False) for _ in range(8)]
    workload = Workload(name="golden-faulted-retry", traces=[[trace0], [trace1]])
    config = _tiny_config(2, InvalidationScheme.IDYLL).with_faults(
        drop_rate=0.25,
        delay_rate=0.20,
        duplicate_rate=0.20,
        reorder_rate=0.10,
        delay_max=1200,
        ack_timeout=1500,
        ack_timeout_max=6000,
    )
    system = MultiGPUSystem(config, seed=11, tracer=tracer)
    result = system.run(workload)
    if result.aborted:
        raise AssertionError(
            f"faulted golden scenario must complete, but aborted: {result.abort_reason}"
        )
    if result.inval_retries < 1:
        raise AssertionError("faulted golden scenario produced no retries")


def tlb_resident_replay(tracer: TraceRecorder) -> None:
    """One GPU, one lane, a tiny working set hammered far past its
    first-touch faults: after 4 cold misses, every access is an L1 TLB
    hit on a local page — the batched replay tier's best case (>90% of
    accesses are fast).  Traced runs always take the pure event path,
    so this fixture pins the exact event sequence the replay kernel
    must be equivalent to, access by access."""
    pages = [_BASE_VPN + i for i in range(4)]
    trace = [(3, pages[i % 4], (i % 7) == 3) for i in range(120)]
    workload = Workload(name="golden-tlb-resident", traces=[[trace]])
    config = _tiny_config(1, InvalidationScheme.IDYLL)
    system = MultiGPUSystem(config, seed=7, tracer=tracer)
    result = system.run(workload)
    density = result.l1_hits / result.accesses
    if density <= 0.9:
        raise AssertionError(
            f"TLB-resident scenario lost its fast-access density: "
            f"{result.l1_hits}/{result.accesses} = {density:.2f} <= 0.9"
        )


SCENARIOS: Dict[str, Callable[[TraceRecorder], None]] = {
    "single_gpu_demand_fault": single_gpu_demand_fault,
    "cross_gpu_migration": cross_gpu_migration,
    "irmb_merge_then_evict": irmb_merge_then_evict,
    "faulted_invalidation_retry": faulted_invalidation_retry,
    "tlb_resident_replay": tlb_resident_replay,
}


def run_scenario(name: str) -> TraceRecorder:
    """Run one scenario with a fresh recorder; returns the recorder."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown golden scenario {name!r}; have {sorted(SCENARIOS)}")
    tracer = TraceRecorder(capacity=None)
    builder(tracer)
    return tracer


def scenario_lines(name: str) -> List[str]:
    """The canonical JSONL trace of one scenario (golden-file content)."""
    return list(run_scenario(name).lines())
