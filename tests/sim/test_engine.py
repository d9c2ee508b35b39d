"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import Engine, SimulationError


class TestEngineBasics:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0

    def test_schedule_runs_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(30, order.append, "c")
        engine.schedule(10, order.append, "a")
        engine.schedule(20, order.append, "b")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_cycle_events_fire_in_schedule_order(self):
        engine = Engine()
        order = []
        for tag in range(5):
            engine.schedule(7, order.append, tag)
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_zero_delay_uses_ready_queue(self):
        engine = Engine()
        seen = []
        engine.schedule(0, seen.append, 1)
        engine.run()
        assert seen == [1]
        assert engine.now == 0

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)

    def test_run_returns_final_time(self):
        engine = Engine()
        engine.schedule(42, lambda: None)
        assert engine.run() == 42

    def test_run_until_stops_clock(self):
        engine = Engine()
        fired = []
        engine.schedule(100, fired.append, True)
        assert engine.run(until=50) == 50
        assert fired == []
        # A second run drains the rest.
        engine.run()
        assert fired == [True]

    def test_run_until_advances_idle_clock(self):
        engine = Engine()
        engine.run(until=99)
        assert engine.now == 99

    def test_run_until_never_moves_clock_backwards(self):
        engine = Engine()
        engine.schedule(300, lambda: None)
        assert engine.run(until=150) == 150
        assert engine.run(until=50) == 150
        assert engine.now == 150

    def test_nested_scheduling(self):
        engine = Engine()
        times = []

        def outer():
            times.append(engine.now)
            engine.schedule(10, inner)

        def inner():
            times.append(engine.now)

        engine.schedule(5, outer)
        engine.run()
        assert times == [5, 15]


class TestTail:
    def test_runs_at_once_when_the_ready_queue_is_empty(self):
        engine = Engine()
        order = []

        def arrive():
            engine.tail(order.append, ("continuation", engine.now))
            order.append("after tail")

        engine.schedule(5, arrive)
        engine.run()
        assert order == [("continuation", 5), "after tail"]

    def test_queues_behind_ready_work(self):
        """With work already queued, the continuation goes where an
        event's waiter would: behind that work, before later work."""
        engine = Engine()
        order = []

        def arrive():
            engine.schedule(0, order.append, "queued before")
            engine.tail(order.append, "continuation")
            engine.schedule(0, order.append, "queued after")

        engine.schedule(5, arrive)
        engine.run()
        assert order == ["queued before", "continuation", "queued after"]


class TestDefer:
    def test_positive_delay_is_a_calendar_entry(self):
        engine = Engine()
        log = []

        def step(n):
            log.append((n, engine.now))
            if n < 2:
                engine.defer(10, step, n + 1)

        engine.schedule(0, step, 0)
        engine.run()
        assert log == [(0, 0), (1, 10), (2, 20)]

    def test_zero_delay_continues_at_once(self):
        """Unlike ``schedule(0, ...)``, no ready-queue hop: the
        continuation runs before work already queued."""
        engine = Engine()
        order = []

        def first():
            engine.schedule(0, order.append, "queued")
            engine.defer(0, order.append, "continued")

        engine.schedule(0, first)
        engine.run()
        assert order == ["continued", "queued"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().defer(-1, lambda: None)


class TestRunBatchUntil:
    """run_batch_until drains events at or before the bound and advances
    the clock to it, re-entrantly from inside a callback."""

    def test_drains_up_to_bound_and_advances_clock(self):
        engine = Engine()
        fired = []
        for delay in (5, 10, 15):
            engine.schedule(delay, fired.append, delay)
        engine.run_batch_until(10)
        assert fired == [5, 10]
        assert engine.now == 10
        engine.run()
        assert fired == [5, 10, 15]

    def test_advances_idle_clock(self):
        engine = Engine()
        engine.run_batch_until(25)
        assert engine.now == 25

    def test_reentrant_from_event_callback(self):
        engine = Engine()
        seen = []

        def consume_next():
            engine.run_batch_until(20)
            seen.append(("inner", engine.now))

        engine.schedule(5, consume_next)
        engine.schedule(20, seen.append, "later")
        engine.run()
        # The bounded drain consumes the t=20 event *inside* the t=5
        # callback, so "later" lands first and the clock is already at 20.
        assert seen == ["later", ("inner", 20)]


class TestEngineEdgeCases:
    def test_run_while_running_rejected(self):
        engine = Engine()
        engine.schedule(0, engine.run)
        with pytest.raises(SimulationError):
            engine.run()

    def test_ready_queue_drains_before_heap(self):
        engine = Engine()
        order = []
        engine.schedule(0, order.append, "zero")
        engine.schedule(1, order.append, "one")
        engine.run()
        assert order == ["zero", "one"]

    def test_zero_delay_cascade_same_cycle(self):
        engine = Engine()
        depth = []

        def cascade(n):
            if n:
                engine.schedule(0, cascade, n - 1)
            else:
                depth.append(engine.now)

        engine.schedule(5, cascade, 50)
        engine.run()
        assert depth == [5]
