"""Unit tests for Resource / Store / Gate / Countdown."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Countdown, Gate, Resource, Store


def _hold():
    """A grantee that keeps its server and does nothing else."""


class TestResource:
    def test_grants_up_to_capacity(self):
        engine = Engine()
        res = Resource(engine, 2)
        granted = []
        for tag in ("first", "second", "third"):
            res.request(granted.append, tag)
        assert granted == []  # handed over from the ready queue
        engine.run()
        assert granted == ["first", "second"]
        assert res.in_use == 2
        # The queued request is granted by the next release, not before.
        res.release()
        engine.run()
        assert granted == ["first", "second", "third"]
        assert res.in_use == 2

    def test_release_wakes_fifo(self):
        engine = Engine()
        res = Resource(engine, 1)
        res.request(_hold)
        order = []
        for tag in ("a", "b"):
            res.request(order.append, tag)
        res.release()
        engine.run()
        assert order == ["a"]
        res.release()
        engine.run()
        assert order == ["a", "b"]

    def test_release_without_request_raises(self):
        engine = Engine()
        res = Resource(engine, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_idle_count(self):
        """Capacity minus the held servers are granted at once; the next
        request queues."""
        engine = Engine()
        res = Resource(engine, 3)
        res.request(_hold)
        granted = []
        for tag in range(3):
            res.request(granted.append, tag)
        engine.run()
        assert granted == [0, 1]

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), 0)

    def test_handoff_keeps_in_use_constant(self):
        engine = Engine()
        res = Resource(engine, 1)
        res.request(_hold)
        res.request(_hold)  # queued
        res.release()  # direct hand-off
        assert res.in_use == 1

    def test_try_acquire_takes_a_free_server_at_once(self):
        engine = Engine()
        res = Resource(engine, 1)
        assert res.try_acquire()
        assert not res.try_acquire()
        assert res.in_use == 1


class TestStore:
    def test_put_then_get(self):
        engine = Engine()
        store = Store(engine)
        store.try_put("x")
        got = []
        store.get(got.append)
        assert got == []  # handed over from the ready queue
        engine.run()
        assert got == ["x"]

    def test_get_waits_for_put(self):
        engine = Engine()
        store = Store(engine)
        got = []
        store.get(got.append)
        engine.run()
        assert got == []
        store.try_put("y")
        engine.run()
        assert got == ["y"]

    def test_fifo_order(self):
        engine = Engine()
        store = Store(engine)
        for item in (1, 2, 3):
            store.try_put(item)
        got = []
        for _ in range(3):
            store.get(got.append)
        engine.run()
        assert got == [1, 2, 3]

    def test_try_get(self):
        engine = Engine()
        store = Store(engine)
        ok, item = store.try_get()
        assert not ok and item is None
        store.try_put(7)
        ok, item = store.try_get()
        assert ok and item == 7

    def test_waiting_getter_receives_direct_handoff(self):
        engine = Engine()
        store = Store(engine)
        got = []
        store.get(lambda tag, item: got.append((tag, item)), "getter")
        store.try_put("z")
        engine.run()
        assert got == [("getter", "z")]
        assert len(store) == 0


class TestGate:
    def test_open_gate_passes_immediately(self):
        engine = Engine()
        gate = Gate(engine)
        gate.open()
        passed = []
        gate.wait(passed.append, "through")
        engine.run()
        assert passed == ["through"]
        assert engine.now == 0

    def test_closed_gate_blocks_until_open(self):
        engine = Engine()
        gate = Gate(engine)
        passed = []
        gate.wait(passed.append, "through")
        engine.run()
        assert passed == []
        engine.schedule(40, gate.open)
        engine.run()
        assert passed == ["through"]
        assert engine.now == 40

    def test_open_releases_all_waiters(self):
        engine = Engine()
        gate = Gate(engine)
        passed = []
        for i in range(10):
            gate.wait(passed.append, i)
        gate.open()
        engine.run()
        assert passed == list(range(10))


class TestCountdown:
    def test_last_completion_hands_on(self):
        engine = Engine()
        joined = []
        countdown = Countdown(engine, 3, lambda tag: joined.append((tag, engine.now)), "all")
        for delay in (5, 15, 10):
            engine.schedule(delay, countdown.done)
        engine.run()
        assert joined == [("all", 15)]

    def test_hand_on_queues_behind_ready_work(self):
        """The last ``done`` hands on with ``Engine.tail``: behind work
        already queued this cycle."""
        engine = Engine()
        order = []
        countdown = Countdown(engine, 1, order.append, "joined")

        def finish():
            engine.schedule(0, order.append, "queued")
            countdown.done()

        engine.schedule(3, finish)
        engine.run()
        assert order == ["queued", "joined"]
