"""Determinism: identical inputs must produce byte-identical traces.

The engine's claim ("every simulation in this package is exactly
reproducible", ``sim/engine.py``) is what makes the golden-trace
harness sound.  These tests pin it down at the event level: two runs of
the quickstart-style scenario with the same seed must produce the same
full trace *and* the same final stats; different seeds must not.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from repro import InvalidationScheme, MultiGPUSystem, baseline_config, build_workload
from repro.metrics.trace_export import trace_lines
from repro.sim.engine import Engine
from repro.sim.process import Gate
from repro.sim.trace import TraceRecorder


def _traced_run(seed: int):
    """The quickstart pairing (PR under IDYLL), scaled down for tests."""
    workload = build_workload(
        "PR", num_gpus=2, lanes=2, accesses_per_lane=200, seed=seed
    )
    config = replace(
        baseline_config(2).with_scheme(InvalidationScheme.IDYLL),
        trace_lanes=2,
        inflight_per_cu=4,
    )
    tracer = TraceRecorder(capacity=None)
    result = MultiGPUSystem(config, seed=seed, tracer=tracer).run(workload)
    return trace_lines(tracer), result


def test_same_seed_same_trace_and_stats():
    lines_a, result_a = _traced_run(seed=7)
    lines_b, result_b = _traced_run(seed=7)
    assert lines_a, "scenario produced an empty trace"
    assert lines_a == lines_b
    assert asdict(result_a) == asdict(result_b)


def test_different_seeds_diverge():
    lines_a, result_a = _traced_run(seed=7)
    lines_b, result_b = _traced_run(seed=8)
    assert lines_a != lines_b
    # Not a hard physical law, but with 800 randomized accesses two seeds
    # landing on the same cycle count would itself be suspicious.
    assert (result_a.exec_time, result_a.far_faults) != (
        result_b.exec_time,
        result_b.far_faults,
    )


# ---------------------------------------------------------------------------
# Same-cycle event ordering.  No nondeterminism was found in the models
# (dict/set iteration there is over ints, which CPython orders stably),
# so per the harness charter we pin the engine-level guarantee that makes
# that sufficient: events scheduled for the same cycle fire in exactly
# the order they were scheduled.
# ---------------------------------------------------------------------------


def test_same_cycle_events_fire_in_scheduling_order():
    engine = Engine()
    order = []
    for i in range(8):
        engine.schedule(5, order.append, ("delayed", i))
    engine.schedule(0, order.append, ("immediate", 0))
    engine.schedule(0, order.append, ("immediate", 1))
    engine.run()
    assert order == [("immediate", 0), ("immediate", 1)] + [
        ("delayed", i) for i in range(8)
    ]


def test_event_callbacks_resume_in_registration_order():
    """Continuations waiting on one event (here a gate opening) resume
    in the order they registered."""
    engine = Engine()
    gate = Gate(engine)
    order = []
    for i in range(5):
        gate.wait(order.append, i)
    engine.schedule(3, gate.open)
    engine.run()
    assert order == list(range(5))


def test_interleaved_schedule_and_ready_queue_order():
    """Zero-delay work enqueued *during* a cycle runs later that same
    cycle, after previously queued same-cycle work — FIFO, not LIFO."""
    engine = Engine()
    order = []

    def outer(tag):
        order.append(("outer", tag))
        engine.schedule(0, order.append, ("inner", tag))

    engine.schedule(2, outer, "a")
    engine.schedule(2, outer, "b")
    engine.run()
    assert order == [("outer", "a"), ("inner", "a"), ("outer", "b"), ("inner", "b")]
