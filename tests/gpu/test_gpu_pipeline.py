"""Unit tests for the GPU translation/data pipeline."""

from dataclasses import replace

from repro.config import GMMUConfig, InvalidationScheme, TLBConfig, baseline_config
from repro.gpu.cu import Lane
from repro.gpu.system import MultiGPUSystem
from repro.memory import pte
from repro.workloads.base import Workload

PAGE = 1 << 20


def _ack(*_args):
    pass


def tiny_config(**overrides):
    config = replace(baseline_config(num_gpus=2), trace_lanes=2, inflight_per_cu=4)
    return replace(config, **overrides) if overrides else config


def run_single_gpu(trace, config=None, lanes=None):
    config = config or tiny_config()
    lanes = lanes if lanes is not None else [trace, []]
    workload = Workload(name="manual", traces=[lanes, [[], []]])
    system = MultiGPUSystem(config)
    result = system.run(workload)
    return system, result


class TestTLBHierarchy:
    def test_l1_hit_after_first_access(self):
        # Gaps large enough that each access completes before the next.
        system, result = run_single_gpu([(3000, PAGE, False)] * 5)
        gpu = system.gpus[0]
        assert gpu.l1_tlbs[0].stats.counter("hits").value == 4
        assert result.l2_misses == 1  # only the first access went past L1

    def test_l2_shared_across_lanes(self):
        """Lane 1 misses L1 but hits the shared L2 after lane 0's fill."""
        system, _result = run_single_gpu(
            [(0, PAGE, False)],
            lanes=[[(0, PAGE, False)], [(5000, PAGE, False)]],
        )
        gpu = system.gpus[0]
        assert gpu.l2_tlb.stats.counter("hits").value == 1

    def test_l1_mshr_coalesces_same_lane(self):
        """Back-to-back same-page accesses in one lane share the miss."""
        system, _result = run_single_gpu([(0, PAGE, False), (0, PAGE, False)])
        gpu = system.gpus[0]
        assert gpu.l1_mshrs[0].stats.counter("coalesced_misses").value >= 1

    def test_l2_mshr_coalesces_across_lanes(self):
        system, result = run_single_gpu(
            None,
            lanes=[[(0, PAGE, False)], [(0, PAGE, False)]],
        )
        assert result.far_faults == 1  # single fault despite two lanes


class TestZeroLatencies:
    """Zero-cycle L1 lookups and walks run their next state inline: a
    run must still complete without unbounded recursion."""

    def zero_config(self):
        return tiny_config(
            l1_tlb=TLBConfig(32, 32, 0),
            gmmu=GMMUConfig(walk_latency_per_level=0),
            fastpath_enabled=False,
        )

    def test_zero_latency_run_completes(self):
        trace = [(i % 3, PAGE + (i % 40) * 4096, i % 5 == 0) for i in range(400)]
        workload = Workload(name="manual", traces=[[trace, trace[::-1]], [trace, []]])
        result = MultiGPUSystem(self.zero_config()).run(workload)
        assert not result.aborted
        assert result.accesses == workload.total_accesses()

    def test_access_completes_on_zero_latency_l1_hit(self):
        """The L1 hit runs inside ``GPU.access``; the access then serves
        the data and retires, releasing its window slot."""
        system = MultiGPUSystem(self.zero_config())
        gpu = system.gpus[0]
        gpu.l1_tlbs[0].insert(PAGE, pte.make_pte(5))
        lane = Lane(gpu, 0, [])
        lane.attach_window()
        assert lane._window.try_acquire()
        lane._slow = 1
        gpu.access(lane, PAGE, False)
        assert gpu.l1_tlbs[0].stats.counter("hits").value == 1
        system.engine.run()
        assert gpu.stats.counter("accesses_completed").value == 1
        assert gpu.stats.counter("local_accesses").value == 1
        assert lane._window.in_use == 0 and lane._slow == 0

    def test_window_grant_waits_behind_queued_same_cycle_work(self):
        """A free window slot is taken at once only when the ready queue
        is empty.  Here an L1 fill is queued behind the lane's first
        step, so the grant waits for its ready hop, the fill runs first,
        and the zero-cycle lookup hits."""
        system = MultiGPUSystem(self.zero_config())
        gpu = system.gpus[0]
        lane = Lane(gpu, 0, [(0, PAGE, False)])
        system.engine.schedule(0, lane.start)
        system.engine.schedule(0, gpu.l1_tlbs[0].insert, PAGE, pte.make_pte(5))
        system.engine.run()
        assert gpu.l1_tlbs[0].stats.counter("hits").value == 1
        assert gpu.stats.counter("accesses_completed").value == 1


class TestFastPath:
    def test_fast_path_matches_slow_path_stats(self):
        """The fast path must produce the same local-access counts."""
        trace = [(0, PAGE, False)] * 8
        system, result = run_single_gpu(trace)
        assert result.local_accesses == 8
        assert result.accesses == 8

    def test_fast_path_declines_remote_pages(self):
        gpu_config = tiny_config()
        workload = Workload(
            name="manual",
            traces=[[[(0, PAGE, False)], []], [[(3000, PAGE, False)] * 3, []]],
        )
        system = MultiGPUSystem(gpu_config)
        result = system.run(workload)
        assert result.remote_accesses >= 1  # remote accesses took the slow path


class TestInvalidationReceipt:
    def test_shootdown_clears_tlbs(self):
        system, _result = run_single_gpu([(0, PAGE, False)] * 3)
        gpu = system.gpus[0]
        assert gpu.l1_tlbs[0].probe(PAGE)
        gpu.receive_invalidation(PAGE, 1, None, _ack)
        assert not gpu.l1_tlbs[0].probe(PAGE)
        assert not gpu.l2_tlb.probe(PAGE)

    def test_broadcast_receipt_walks_page_table(self):
        system, _result = run_single_gpu([(0, PAGE, False)])
        gpu = system.gpus[0]
        acks = []
        gpu.receive_invalidation(PAGE, 1, None, acks.append, "ack")
        assert acks == []  # must wait for the INVALIDATE walk
        system.engine.run()
        assert acks == ["ack"]
        assert gpu.page_table.translate(PAGE) is None

    def test_necessary_vs_unnecessary_accounting(self):
        system, _result = run_single_gpu([(0, PAGE, False)])
        gpu = system.gpus[0]
        gpu.receive_invalidation(PAGE, 1, None, _ack)        # valid PTE -> necessary
        gpu.receive_invalidation(PAGE + 99, 1, None, _ack)   # absent -> unnecessary
        assert gpu.stats.counter("inval_received.necessary").value == 1
        assert gpu.stats.counter("inval_received.unnecessary").value == 1

    def test_idyll_receipt_acks_immediately(self):
        config = tiny_config(invalidation_scheme=InvalidationScheme.IDYLL)
        system, _result = run_single_gpu([(0, PAGE, False)], config=config)
        gpu = system.gpus[0]
        acks = []
        gpu.receive_invalidation(PAGE, 1, None, acks.append, "ack")
        assert acks == ["ack"]  # buffered in the IRMB, no walk needed
        assert gpu.irmb.lookup(PAGE)
        # The stale PTE is still in the page table (lazy!).
        assert gpu.page_table.translate(PAGE) is not None

    def test_apply_instant_invalidation(self):
        system, _result = run_single_gpu([(0, PAGE, False)])
        gpu = system.gpus[0]
        gpu.apply_instant_invalidation(PAGE)
        assert gpu.page_table.translate(PAGE) is None


class TestDeliverMapping:
    def test_deliver_installs_pte(self):
        system, _result = run_single_gpu([])
        gpu = system.gpus[0]
        done = []
        gpu.deliver_mapping(PAGE, pte.make_pte(0x42), done.append, "installed")
        system.engine.run()
        assert done == ["installed"]
        word = gpu.page_table.translate(PAGE)
        assert word is not None and pte.ppn(word) == 0x42

    def test_deliver_cancels_pending_irmb_entry(self):
        config = tiny_config(invalidation_scheme=InvalidationScheme.IDYLL)
        system, _result = run_single_gpu([(0, PAGE, False)], config=config)
        gpu = system.gpus[0]
        gpu.receive_invalidation(PAGE, 1, None, _ack)
        assert gpu.irmb.lookup(PAGE)
        gpu.deliver_mapping(PAGE, pte.make_pte(0x42), _ack)
        assert not gpu.irmb.lookup(PAGE)


class TestIRMBBypass:
    def test_demand_miss_hitting_irmb_bypasses_walk(self):
        """§6.3 scenario 3: L2 miss + IRMB hit -> straight to far fault."""
        config = tiny_config(invalidation_scheme=InvalidationScheme.IDYLL)
        # Touch the page, then an invalidation arrives, then touch again.
        trace = [(0, PAGE, False), (8000, PAGE, False)]
        workload = Workload(name="manual", traces=[[trace, []], [[], []]])
        system = MultiGPUSystem(config)
        gpu = system.gpus[0]
        # Freeze the idle writeback so the buffered invalidation is still
        # in the IRMB when the second access arrives.
        gpu.lazy.stop()
        # Inject the invalidation between the two accesses.
        system.engine.schedule(4000, gpu.receive_invalidation, PAGE, 1, None, _ack)
        result = system.run(workload)
        assert gpu.stats.counter("irmb_bypasses").value == 1
        assert result.far_faults == 2  # initial touch + bypass refault
