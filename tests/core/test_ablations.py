"""Unit tests for the IDYLL ablation knobs (DESIGN.md design choices)."""

from dataclasses import replace

from repro.config import IRMBConfig, InvalidationScheme, baseline_config
from repro.core.irmb import IRMB
from repro.gpu.system import MultiGPUSystem
from repro.memory.address import LAYOUT_4K
from repro.workloads.base import Workload

PAGE = 1 << 20


def _ack():
    pass


class TestMergeAblation:
    def test_no_merge_gives_one_vpn_per_entry(self):
        irmb = IRMB(IRMBConfig(bases=4, offsets_per_base=16, merge_enabled=False), LAYOUT_4K)
        irmb.insert(PAGE)
        irmb.insert(PAGE + 1)  # same leaf node, would merge normally
        assert len(irmb) == 2

    def test_no_merge_still_looks_up_correctly(self):
        irmb = IRMB(IRMBConfig(bases=4, merge_enabled=False), LAYOUT_4K)
        irmb.insert(PAGE)
        assert irmb.lookup(PAGE)
        assert not irmb.lookup(PAGE + 1)
        assert irmb.remove(PAGE)
        assert not irmb.lookup(PAGE)

    def test_no_merge_eviction_returns_single_vpn(self):
        irmb = IRMB(IRMBConfig(bases=1, merge_enabled=False), LAYOUT_4K)
        irmb.insert(PAGE)
        evicted = irmb.insert(PAGE + 1)
        assert evicted == [PAGE]


class TestBypassAblation:
    def _run(self, bypass: bool):
        config = replace(
            baseline_config(num_gpus=2).with_scheme(InvalidationScheme.IDYLL),
            trace_lanes=1,
            inflight_per_cu=4,
            irmb_bypass_enabled=bypass,
        )
        trace = [(0, PAGE, False), (8000, PAGE, False)]
        workload = Workload(name="m", traces=[[trace], [[]]])
        system = MultiGPUSystem(config)
        system.gpus[0].lazy.stop()
        system.engine.schedule(4000, system.gpus[0].receive_invalidation, PAGE, 1, None, _ack)
        system.run(workload)
        return system.gpus[0]

    def test_bypass_on(self):
        gpu = self._run(bypass=True)
        assert gpu.stats.counter("irmb_bypasses").value == 1

    def test_bypass_off_walks_instead(self):
        gpu = self._run(bypass=False)
        assert gpu.stats.counter("irmb_bypasses").value == 0
        # The demand walk saw the stale-but-valid PTE instead.
        assert gpu.gmmu.stats.latency("total.demand").count >= 2


class TestIdleWritebackAblation:
    def test_disabled_loop_leaves_entries_buffered(self):
        config = replace(
            baseline_config(num_gpus=2).with_scheme(InvalidationScheme.IDYLL),
            trace_lanes=1,
            inflight_per_cu=4,
            lazy_idle_writeback=False,
        )
        workload = Workload(name="m", traces=[[[(0, PAGE, False)]], [[]]])
        system = MultiGPUSystem(config)
        gpu = system.gpus[0]
        system.engine.schedule(6000, gpu.receive_invalidation, PAGE, 1, None, _ack)
        system.run(workload)
        # Without idle writeback, the invalidation stays in the IRMB and
        # the (stale) PTE stays valid in the page table.
        assert gpu.irmb.lookup(PAGE)
        assert gpu.page_table.translate(PAGE) is not None
