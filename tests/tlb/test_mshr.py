"""Unit tests for the coalescing MSHR."""

import pytest

from repro.sim.engine import Engine
from repro.tlb.mshr import MSHR


def _noop(_value):
    pass


class TestAllocation:
    def test_first_allocator_is_primary(self):
        mshr = MSHR(Engine())
        assert mshr.allocate(5) is True
        assert mshr.allocate(5) is False
        assert 5 in mshr
        assert 6 not in mshr

    def test_distinct_vpns_independent(self):
        engine = Engine()
        mshr = MSHR(engine)
        assert mshr.allocate(1)
        assert mshr.allocate(2)
        got = []
        mshr.wait(1, got.append)
        mshr.wait(2, got.append)
        assert mshr.complete(2, value="two") == 1
        engine.run()
        assert got == ["two"]
        assert 1 in mshr and 2 not in mshr


class TestCoalescing:
    def test_waiters_released_with_fill_value(self):
        engine = Engine()
        mshr = MSHR(engine)
        mshr.allocate(5)
        got = []
        for tag in range(3):
            mshr.wait(5, lambda value, tag=tag: got.append((tag, value)))
        released = mshr.complete(5, value=0xCAFE)
        assert got == []  # queued, not run inside complete()
        engine.run()
        assert released == 3
        assert got == [(0, 0xCAFE), (1, 0xCAFE), (2, 0xCAFE)]
        assert 5 not in mshr

    def test_continuations_run_in_registration_order(self):
        """Coalesced waiters run in the order they registered, each
        after the ready work queued before the completion and before
        the ready work queued after it."""
        engine = Engine()
        mshr = MSHR(engine)
        mshr.allocate(5)
        order = []
        for tag in ("a", "b", "c"):
            mshr.wait(5, lambda value, tag=tag: order.append((tag, value)))
        engine.schedule(0, order.append, ("before", None))
        mshr.complete(5, value=1)
        engine.schedule(0, order.append, ("after", None))
        engine.run()
        assert order == [("before", None), ("a", 1), ("b", 1), ("c", 1), ("after", None)]

    def test_continuation_receives_its_arguments_then_the_value(self):
        engine = Engine()
        mshr = MSHR(engine)
        mshr.allocate(5)
        got = []
        mshr.wait(5, lambda *args: got.append(args), "lane", 3)
        mshr.complete(5, value=("word", 0))
        engine.run()
        assert got == [("lane", 3, ("word", 0))]

    def test_wait_without_allocation_raises(self):
        with pytest.raises(KeyError):
            MSHR(Engine()).wait(5, _noop)

    def test_complete_without_allocation_raises(self):
        with pytest.raises(KeyError):
            MSHR(Engine()).complete(5)

    def test_reallocation_after_complete(self):
        mshr = MSHR(Engine())
        mshr.allocate(5)
        mshr.complete(5)
        assert mshr.allocate(5) is True

    def test_stats_track_primary_and_coalesced(self):
        mshr = MSHR(Engine())
        mshr.allocate(5)
        mshr.wait(5, _noop)
        mshr.wait(5, _noop)
        assert mshr.stats.counter("primary_misses").value == 1
        assert mshr.stats.counter("coalesced_misses").value == 2
