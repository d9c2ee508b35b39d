"""Invariant auditors: a consistent system passes, artificially staled
translation state is caught and reported."""

import pytest

from repro.config import InvalidationScheme, baseline_config
from repro.faults.auditor import audit_system, protocol_dump
from repro.gpu.system import MultiGPUSystem
from repro.memory import pte as pte_bits
from repro.workloads.base import Workload

_VPN = 1 << 20


def _run_small_system(scheme=InvalidationScheme.IDYLL, num_gpus=2):
    from dataclasses import replace

    config = baseline_config(num_gpus).with_scheme(scheme)
    config = replace(config, trace_lanes=1, inflight_per_cu=4)
    hot = _VPN
    trace0 = [(10, hot, True), (10, _VPN + 100, False), (20, hot, False)]
    trace1 = [(10, _VPN + 200, False)] + [(30, hot, False) for _ in range(6)]
    traces = [[trace0], [trace1]][:num_gpus]
    workload = Workload(name="audit", traces=traces)
    system = MultiGPUSystem(config, seed=7)
    system.run(workload)
    return system


class TestCleanSystems:
    @pytest.mark.parametrize(
        "scheme",
        [InvalidationScheme.BROADCAST, InvalidationScheme.IDYLL,
         InvalidationScheme.LAZY],
    )
    def test_quiesced_system_is_consistent(self, scheme):
        system = _run_small_system(scheme)
        assert audit_system(system) == []

    def test_single_gpu_system_is_consistent(self):
        from dataclasses import replace

        config = replace(baseline_config(1), trace_lanes=1, inflight_per_cu=4)
        trace = [(10, _VPN + i, False) for i in range(4)]
        system = MultiGPUSystem(config, seed=7)
        system.run(Workload(name="audit1", traces=[[trace]]))
        assert audit_system(system) == []


class TestPoisonedSystems:
    def test_stale_tlb_entry_is_reported(self):
        """A TLB entry whose frame disagrees with the host page table —
        exactly what a lost invalidation leaves behind — must trip the
        no-stale-translation check."""
        system = _run_small_system()
        ghost = _VPN + 0x5000                     # never touched by the run
        system.gpus[0].l2_tlb.insert(ghost, pte_bits.make_pte(0x1234))
        violations = audit_system(system)
        assert violations
        assert any("stale" in v and "l2tlb" in v for v in violations)

    def test_uncovered_residency_is_reported(self):
        """Under a directory scheme, a translation the directory does not
        cover would be skipped by every future shootdown."""
        system = _run_small_system(InvalidationScheme.IDYLL)
        assert system.driver.directory is not None
        ghost = _VPN + 0x6000
        system.gpus[1].l2_tlb.insert(ghost, pte_bits.make_pte(0x4321))
        violations = audit_system(system)
        assert any("directory does not list" in v for v in violations)

    def test_pending_invalidation_excuses_residency(self):
        """An in-flight tracked invalidation legitimately explains a
        stale-looking entry: the auditor must not cry wolf."""
        system = _run_small_system()
        from repro.config import FaultConfig
        from repro.uvm.protocol import InvalidationTracker

        tracker = InvalidationTracker(system.engine, FaultConfig())
        system.driver.tracker = tracker
        ghost = _VPN + 0x7000
        system.gpus[0].l2_tlb.insert(ghost, pte_bits.make_pte(0x1111))
        tracker.begin(0, ghost)
        assert audit_system(system) == []

    def test_migration_gate_excuses_residency(self):
        system = _run_small_system()
        ghost = _VPN + 0x8000
        system.gpus[0].l2_tlb.insert(ghost, pte_bits.make_pte(0x2222))
        system.driver._gates[ghost] = object()
        try:
            assert audit_system(system) == []
        finally:
            del system.driver._gates[ghost]


class TestL2MshrExcuse:
    """A far fault holds its page's L2 MSHR entry until the install
    retires, so the old local PTE it leaves behind cannot be walked;
    a TLB entry can be served at once and is never excused."""

    def test_stale_local_pte_excused_only_while_mshr_holds_page(self):
        system = _run_small_system(InvalidationScheme.BROADCAST)
        gpu = system.gpus[0]
        ghost = _VPN + 0x9000
        gpu.page_table.set_entry(ghost, pte_bits.make_pte(0x3333))
        gpu.l2_mshr.allocate(ghost)
        assert audit_system(system) == []
        gpu.l2_mshr.complete(ghost)
        violations = audit_system(system)
        assert any("stale" in v and "page_table" in v for v in violations)

    def test_stale_tlb_entry_never_excused(self):
        system = _run_small_system(InvalidationScheme.BROADCAST)
        gpu = system.gpus[0]
        ghost = _VPN + 0xA000
        gpu.l2_mshr.allocate(ghost)
        gpu.l1_tlbs[0].insert(ghost, pte_bits.make_pte(0x4444))
        gpu.l2_tlb.insert(ghost, pte_bits.make_pte(0x4444))
        violations = audit_system(system)
        assert any("stale" in v and "l1tlb0" in v for v in violations)
        assert any("stale" in v and "l2tlb" in v for v in violations)


class TestProtocolDump:
    def test_dump_mentions_every_gpu_and_counters(self):
        system = _run_small_system()
        dump = protocol_dump(system, violations=["example violation"])
        assert "example violation" in dump
        for gpu in system.gpus:
            assert f"gpu{gpu.gpu_id}:" in dump
        assert "invalidations_sent=" in dump
