"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import AllOf, Engine, Event, Process, SimulationError


def _fires_after(engine, delay, value=None):
    """An event that an ``Engine.schedule`` callback fires ``delay``
    cycles from now."""
    ev = engine.event()
    engine.schedule(delay, ev.succeed, value)
    return ev


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


class TestEvent:
    def test_succeed_fires_callbacks(self):
        engine = Engine()
        ev = engine.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(123)
        engine.run()
        assert got == [123]

    def test_callback_after_trigger_still_fires(self):
        engine = Engine()
        ev = engine.event()
        ev.succeed("x")
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        engine.run()
        assert got == ["x"]

    def test_double_succeed_rejected(self):
        engine = Engine()
        ev = engine.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_trigger_rejected(self):
        engine = Engine()
        ev = engine.event()
        with pytest.raises(SimulationError):
            _ = ev.value


class TestProcess:
    def test_process_yields_int_timeouts(self):
        engine = Engine()
        trace = []

        def proc():
            trace.append(engine.now)
            yield 10
            trace.append(engine.now)
            yield 5
            trace.append(engine.now)

        engine.process(proc())
        engine.run()
        assert trace == [0, 10, 15]

    def test_zero_int_yield_continues_immediately(self):
        engine = Engine()

        def proc():
            yield 0
            yield 0
            return engine.now

        p = engine.process(proc())
        engine.run()
        assert p.value == 0

    def test_process_return_value_propagates(self):
        engine = Engine()

        def child():
            yield 3
            return "result"

        def parent():
            value = yield engine.process(child())
            return value + "!"

        p = engine.process(parent())
        engine.run()
        assert p.value == "result!"

    def test_process_waits_on_event(self):
        engine = Engine()
        ev = engine.event()
        got = []

        def waiter():
            got.append((yield ev))

        engine.process(waiter())
        engine.schedule(7, lambda: ev.succeed("ping"))
        engine.run()
        assert got == ["ping"]

    def test_yielding_garbage_raises(self):
        engine = Engine()

        def bad():
            yield "not a waitable"

        engine.process(bad())
        with pytest.raises(SimulationError):
            engine.run()

    def test_many_sequential_processes_terminate(self):
        engine = Engine()
        done = []

        def worker(i):
            yield i + 1
            done.append(i)

        for i in range(100):
            engine.process(worker(i))
        engine.run()
        assert len(done) == 100

    def test_process_at_starts_from_its_calendar_key(self):
        """``at`` puts the first step on that ``(time, seq)`` key instead
        of the ready queue; same-cycle entries order by ``seq``."""
        engine = Engine()
        log = []
        engine.schedule(10, log.append, "scheduled")  # key (10, 1)

        def body():
            log.append(("first step", engine.now))
            yield 5
            log.append(("resumed", engine.now))

        engine.process(body(), at=(10, 0))
        engine.run()
        assert log == [("first step", 10), "scheduled", ("resumed", 15)]


class TestAllOf:
    def test_allof_waits_for_all(self):
        engine = Engine()
        events = [_fires_after(engine, d) for d in (5, 15, 10)]
        combined = AllOf(engine, events)
        finished_at = []
        combined.add_callback(lambda _e: finished_at.append(engine.now))
        engine.run()
        assert finished_at == [15]

    def test_allof_empty_fires_immediately(self):
        engine = Engine()
        combined = AllOf(engine, [])
        assert combined.triggered

    def test_allof_collects_values(self):
        engine = Engine()
        events = [_fires_after(engine, 1, value="a"), _fires_after(engine, 2, value="b")]
        combined = AllOf(engine, events)
        engine.run()
        assert combined.value == ["a", "b"]

    def test_allof_with_pretriggered_children(self):
        engine = Engine()
        ev = engine.event()
        ev.succeed(1)
        combined = AllOf(engine, [ev, _fires_after(engine, 4, value=2)])
        engine.run()
        assert combined.value == [1, 2]


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

        def reentrant():
            engine.run()
            yield 1

        engine.process(reentrant())
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
