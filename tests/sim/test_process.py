"""Unit tests for Resource / Store / Gate."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Gate, Resource, Store


class TestResource:
    def test_grants_up_to_capacity(self):
        engine = Engine()
        res = Resource(engine, 2)
        first = res.request()
        second = res.request()
        third = res.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert res.in_use == 2
        assert res.queue_length == 1

    def test_release_wakes_fifo(self):
        engine = Engine()
        res = Resource(engine, 1)
        res.request()
        order = []
        for tag in ("a", "b"):
            res.request().add_callback(lambda _e, t=tag: order.append(t))
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
        engine = Engine()
        res = Resource(engine, 3)
        res.request()
        assert res.idle == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), 0)

    def test_handoff_keeps_in_use_constant(self):
        engine = Engine()
        res = Resource(engine, 1)
        res.request()
        res.request()  # queued
        res.release()  # direct hand-off
        assert res.in_use == 1


class TestStore:
    def test_put_then_get(self):
        engine = Engine()
        store = Store(engine)
        store.try_put("x")
        got = store.get()
        assert got.triggered and got.value == "x"

    def test_get_waits_for_put(self):
        engine = Engine()
        store = Store(engine)
        got = store.get()
        assert not got.triggered
        store.try_put("y")
        engine.run()
        assert got.value == "y"

    def test_fifo_order(self):
        engine = Engine()
        store = Store(engine)
        for item in (1, 2, 3):
            store.try_put(item)
        assert [store.get().value for _ in range(3)] == [1, 2, 3]

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
        got = store.get()
        store.try_put("z")
        engine.run()
        assert got.value == "z"
        assert len(store) == 0


class TestGate:
    def test_open_gate_passes_immediately(self):
        engine = Engine()
        gate = Gate(engine, open_=True)
        assert gate.wait().triggered

    def test_closed_gate_blocks_until_open(self):
        engine = Engine()
        gate = Gate(engine, open_=False)
        ev = gate.wait()
        assert not ev.triggered
        gate.open()
        engine.run()
        assert ev.triggered

    def test_open_releases_all_waiters(self):
        engine = Engine()
        gate = Gate(engine, open_=False)
        events = [gate.wait() for _ in range(10)]
        gate.open()
        engine.run()
        assert all(e.triggered for e in events)
