"""Unit tests for the CU trace lane: windowing, gaps, drain semantics."""

from dataclasses import replace

from repro.config import baseline_config
from repro.gpu.system import MultiGPUSystem
from repro.workloads.base import Workload

PAGE = 1 << 20


def run_lane(trace, window=2):
    config = replace(
        baseline_config(num_gpus=1), trace_lanes=1, inflight_per_cu=window
    )
    workload = Workload(name="lane", traces=[[trace]])
    system = MultiGPUSystem(config)
    result = system.run(workload)
    return system, result


class TestWindowing:
    def test_gaps_accumulate_instructions(self):
        _system, result = run_lane([(10, PAGE, False), (20, PAGE, False)])
        assert result.instructions == 11 + 21

    def test_window_bounds_inflight(self):
        """With window=1 every access fully serialises: execution time is
        at least the sum of individual access latencies."""
        trace = [(0, PAGE + 512 * i, False) for i in range(4)]
        _s, serial = run_lane(trace, window=1)
        _s, overlapped = run_lane(trace, window=4)
        assert serial.exec_time > overlapped.exec_time

    def test_drain_waits_for_last_access(self):
        """finish_time covers the final access's completion, not just its
        issue (the drain loop reacquires every window slot)."""
        _system, result = run_lane([(0, PAGE, False)])
        # One access: at minimum L1 latency + fault path + DRAM.
        assert result.exec_time > 100

    def test_empty_trace_finishes_immediately(self):
        _system, result = run_lane([])
        assert result.exec_time == 0
        assert result.accesses == 0

    def test_all_accesses_counted_once(self):
        trace = [(3, PAGE + 512 * (i % 3), i % 2 == 0) for i in range(30)]
        _system, result = run_lane(trace, window=4)
        assert result.accesses == 30

    def test_deep_window_of_zero_gap_accesses(self):
        """2,000 slots and 3,000 back-to-back accesses to 3 pages: the
        lane issues until its window fills within one callback, so it
        must loop there, not recurse once per access."""
        trace = [(0, PAGE + i % 3, False) for i in range(3000)]
        _system, result = run_lane(trace, window=2000)
        assert result.accesses == 3000
