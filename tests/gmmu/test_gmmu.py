"""Unit tests for the GMMU: walk latency, queueing, contention, aborts."""

import heapq
import random
from collections import deque

from repro.config import GMMUConfig
from repro.gmmu.gmmu import GMMU
from repro.gmmu.request import WalkKind
from repro.memory import pte
from repro.memory.address import LAYOUT_4K
from repro.memory.page_table import PageTable
from repro.memory.walk_cache import PageWalkCache
from repro.sim.engine import Engine


def _noop(_result):
    pass


def walk(gmmu, vpn, kind, word=None):
    """Submit a walk; returns the request and the list its continuation
    appends the walk's result to."""
    results = []
    return gmmu.walk(vpn, kind, results.append, word=word), results


def make_gmmu(walkers=2, pwc=128):
    engine = Engine()
    table = PageTable(LAYOUT_4K)
    config = GMMUConfig(
        walker_threads=walkers,
        walk_latency_per_level=100,
        walk_cache_entries=pwc,
    )
    return engine, table, GMMU(engine, config, table)


class TestDemandWalks:
    def test_cold_walk_costs_four_levels(self):
        engine, table, gmmu = make_gmmu()
        table.set_entry(0x123, pte.make_pte(7))
        _request, results = walk(gmmu, 0x123, WalkKind.DEMAND)
        engine.run()
        assert results == [pte.make_pte(7)]
        assert engine.now == 400

    def test_warm_walk_hits_pwc(self):
        engine, table, gmmu = make_gmmu()
        table.set_entry(0x123, pte.make_pte(7))
        gmmu.walk(0x123, WalkKind.DEMAND, _noop)
        engine.run()
        t0 = engine.now
        gmmu.walk(0x123, WalkKind.DEMAND, _noop)
        engine.run()
        assert engine.now - t0 == 100  # leaf-level PWC hit: one access

    def test_demand_walk_of_absent_pte_returns_none(self):
        engine, _table, gmmu = make_gmmu()
        _request, results = walk(gmmu, 0x5, WalkKind.DEMAND)
        engine.run()
        assert results == [None]

    def test_invalid_pte_translates_to_none(self):
        engine, table, gmmu = make_gmmu()
        table.set_entry(0x5, pte.clear_valid(pte.make_pte(9)))
        _request, results = walk(gmmu, 0x5, WalkKind.DEMAND)
        engine.run()
        assert results == [None]


class TestInvalidateAndUpdateWalks:
    def test_invalidate_clears_valid_bit(self):
        engine, table, gmmu = make_gmmu()
        table.set_entry(0x5, pte.make_pte(9))
        request = gmmu.walk(0x5, WalkKind.INVALIDATE, _noop)
        engine.run()
        assert request.was_valid is True
        assert table.translate(0x5) is None
        assert gmmu.stats.counter("invalidations.necessary").value == 1

    def test_unnecessary_invalidation_counted(self):
        engine, _table, gmmu = make_gmmu()
        gmmu.walk(0x5, WalkKind.INVALIDATE, _noop)
        engine.run()
        assert gmmu.stats.counter("invalidations.unnecessary").value == 1

    def test_update_installs_word(self):
        engine, table, gmmu = make_gmmu()
        gmmu.walk(0x5, WalkKind.UPDATE, _noop, word=pte.make_pte(3))
        engine.run()
        assert table.translate(0x5) == pte.make_pte(3)

    def test_aborted_invalidate_leaves_pte_alone(self):
        engine, table, gmmu = make_gmmu(walkers=1)
        table.set_entry(0x5, pte.make_pte(9))
        request = gmmu.walk(0x5, WalkKind.INVALIDATE, _noop)
        request.aborted = True
        engine.run()
        assert table.translate(0x5) is not None
        assert gmmu.stats.counter("aborted_walks").value == 1


class TestContention:
    def test_walker_threads_limit_parallelism(self):
        """With one walker, two cold walks serialise: 400 + 400 cycles."""
        engine, table, gmmu = make_gmmu(walkers=1, pwc=1)
        table.set_entry(0x0 << 9, pte.make_pte(1))
        far = 0x5 << 27 | 0x3 << 18  # shares no useful PWC tags
        table.set_entry(far, pte.make_pte(2))
        gmmu.walk(0x0 << 9, WalkKind.DEMAND, _noop)
        gmmu.walk(far, WalkKind.DEMAND, _noop)
        engine.run()
        assert engine.now >= 700  # second walk queued behind the first

    def test_parallel_walkers_overlap(self):
        engine, table, gmmu = make_gmmu(walkers=2, pwc=1)
        table.set_entry(0x0 << 9, pte.make_pte(1))
        far = 0x5 << 27 | 0x3 << 18
        table.set_entry(far, pte.make_pte(2))
        gmmu.walk(0x0 << 9, WalkKind.DEMAND, _noop)
        gmmu.walk(far, WalkKind.DEMAND, _noop)
        engine.run()
        assert engine.now <= 500

    def test_invalidations_delay_demand_walks(self):
        """The core §5.2 contention: invalidation walks occupy the same
        walker threads and queue slots as demand walks."""
        engine, table, gmmu = make_gmmu(walkers=1, pwc=1)
        for i in range(5):
            table.set_entry(i << 20, pte.make_pte(i))
        for i in range(5):
            gmmu.walk(i << 20, WalkKind.INVALIDATE, _noop)
        demand = gmmu.walk(0x7FFF << 20, WalkKind.DEMAND, _noop)
        engine.run()
        queue_wait = demand.started_at - demand.issued_at
        assert queue_wait > 0

    def test_queue_wait_recorded_per_kind(self):
        engine, table, gmmu = make_gmmu(walkers=1)
        table.set_entry(1, pte.make_pte(1))
        gmmu.walk(1, WalkKind.DEMAND, _noop)
        gmmu.walk(1, WalkKind.DEMAND, _noop)
        engine.run()
        assert gmmu.stats.latency("queue_wait.demand").count == 2
        assert gmmu.stats.latency("queue_wait.demand").max > 0


class TestContinuations:
    def test_continuation_runs_after_thread_passes_to_next_walk(self):
        engine, _table, gmmu = make_gmmu(walkers=1)
        seen = []
        queued = []

        def first_done(_result):
            seen.append((engine.now, queued[0].started_at, gmmu.load))

        gmmu.walk(0x1, WalkKind.DEMAND, first_done)
        queued.append(gmmu.walk(0x2, WalkKind.DEMAND, _noop))
        engine.run()
        assert seen == [(400, 400, 1)]

    def test_continuation_runs_before_work_its_retirement_queued(self):
        """A queued walk aborted meanwhile is skipped when the thread
        passes on; its continuation runs after the retiring walk's."""
        engine, _table, gmmu = make_gmmu(walkers=1)
        order = []
        gmmu.walk(0x1, WalkKind.DEMAND, lambda _r: order.append(("first", engine.now)))
        aborted = gmmu.walk(0x2, WalkKind.INVALIDATE, lambda r: order.append(("aborted", r)))
        aborted.aborted = True
        gmmu.walk(0x3, WalkKind.DEMAND, lambda _r: order.append(("third", engine.now)))
        engine.run()
        assert order[:2] == [("first", 400), ("aborted", None)]
        assert order[2][0] == "third" and order[2][1] > 400

    def test_continuation_receives_its_arguments_then_the_result(self):
        engine, table, gmmu = make_gmmu()
        table.set_entry(0x9, pte.make_pte(4))
        got = []
        gmmu.walk(0x9, WalkKind.DEMAND, lambda *args: got.append(args), "lane", 2)
        engine.run()
        assert got == [("lane", 2, pte.make_pte(4))]


class TestZeroLatencyWalks:
    """Zero-cycle walks complete, and a walker freed by a stall hands
    itself down a long queue of them without recursing."""

    class _StallFirst:
        def __init__(self):
            self.stalled = False

        def walker_stall(self, _name):
            stall, self.stalled = (0 if self.stalled else 50), True
            return stall

    def test_queue_behind_stalled_walker_drains(self):
        engine = Engine()
        table = PageTable(LAYOUT_4K)
        config = GMMUConfig(walker_threads=1, walk_latency_per_level=0)
        gmmu = GMMU(engine, config, table, injector=self._StallFirst())
        walks = [walk(gmmu, i, WalkKind.DEMAND) for i in range(3000)]
        engine.run()
        assert all(results == [None] for _request, results in walks)
        assert walks[-1][0].started_at == 50
        assert gmmu.is_idle


class TestIdleTracking:
    def test_idle_transitions(self):
        engine, table, gmmu = make_gmmu()
        assert gmmu.is_idle
        table.set_entry(1, pte.make_pte(1))
        gmmu.walk(1, WalkKind.DEMAND, _noop)
        assert not gmmu.is_idle
        engine.run()
        assert gmmu.is_idle

    def test_wait_idle_fires_on_drain(self):
        engine, table, gmmu = make_gmmu(walkers=1)
        table.set_entry(1, pte.make_pte(1))
        gmmu.walk(1, WalkKind.DEMAND, _noop)
        woken = []
        gmmu.wait_idle(lambda: woken.append(engine.now))
        engine.schedule(0, woken.append, "ready work")
        engine.run()
        assert woken == ["ready work", 400]

    def test_wait_idle_fires_at_once_while_a_walker_is_free(self):
        """A walker is available when nothing is queued and a thread is
        free, even with another thread mid-walk (§6.3)."""
        engine, table, gmmu = make_gmmu(walkers=2)
        table.set_entry(1, pte.make_pte(1))
        _request, results = walk(gmmu, 1, WalkKind.DEMAND)
        woken = []
        gmmu.wait_idle(lambda: woken.append(engine.now))
        assert not gmmu.is_idle
        engine.run(until=0)
        assert woken == [0]  # from the ready queue, in the same cycle
        engine.run()
        assert results == [pte.make_pte(1)]

    def test_invalidation_busy_cycles_accumulate(self):
        engine, table, gmmu = make_gmmu()
        table.set_entry(1, pte.make_pte(1))
        gmmu.walk(1, WalkKind.INVALIDATE, _noop)
        engine.run()
        assert gmmu.invalidation_busy_cycles() == 400
        assert gmmu.any_busy_cycles() == 400

    def test_demand_walks_do_not_count_as_inval_busy(self):
        engine, table, gmmu = make_gmmu()
        table.set_entry(1, pte.make_pte(1))
        gmmu.walk(1, WalkKind.DEMAND, _noop)
        engine.run()
        assert gmmu.invalidation_busy_cycles() == 0
        assert gmmu.any_busy_cycles() == 400


def _reference_walks(submits, walkers, pwc_entries, per_level):
    """Analytic FIFO walker pool over a shared PWC.  ``submits`` is a
    list of ``(cycle, vpn)`` at distinct, increasing cycles.  A walk
    probes the PWC when it wins a walker and fills it when it retires;
    a retiring walk hands its walker to the head of the queue.  A
    submission is handled before any walk retiring in the same cycle.
    Returns each walk's ``(start, end)`` cycles."""
    pwc = PageWalkCache(pwc_entries, LAYOUT_4K)
    spans = [None] * len(submits)
    retiring = []  # (end cycle, start order, walk index)
    queue = deque()
    free = walkers
    starts = 0

    def start(i, now):
        nonlocal starts
        cached = pwc.deepest_cached_level(submits[i][1])
        levels = LAYOUT_4K.levels if cached is None else cached
        spans[i] = (now, now + levels * per_level)
        heapq.heappush(retiring, (spans[i][1], starts, i))
        starts += 1

    def retire_until(cycle):
        nonlocal free
        while retiring and retiring[0][0] < cycle:
            now, _order, i = heapq.heappop(retiring)
            pwc.fill(submits[i][1])
            if queue:
                start(queue.popleft(), now)
            else:
                free += 1

    for i, (cycle, _vpn) in enumerate(submits):
        retire_until(cycle)
        if free and not queue:
            free -= 1
            start(i, cycle)
        else:
            queue.append(i)
    retire_until(float("inf"))
    return spans


class TestWalkerTiming:
    """A seeded mix of demand, invalidate and update walks on two
    walkers and a 16-entry PWC pins every walk's start cycle."""

    def test_seeded_mix_start_cycles(self):
        rng = random.Random(5)
        engine, table, gmmu = make_gmmu(walkers=2, pwc=16)
        regions = [r << 27 | s << 18 for r in range(3) for s in range(4)]
        submits, kinds, cycle = [], [], 0
        for i in range(300):
            cycle += rng.choice((1, 2, 7, 60, 150, 400, 900))
            vpn = rng.choice(regions) | rng.randrange(1 << 12)
            submits.append((cycle, vpn))
            kinds.append(rng.choice((WalkKind.DEMAND,) * 3 + (WalkKind.INVALIDATE, WalkKind.UPDATE)))
            table.set_entry(vpn, pte.make_pte(i + 1))
        requests = [None] * len(submits)

        def submit(i):
            word = pte.make_pte(7) if kinds[i] is WalkKind.UPDATE else None
            requests[i] = gmmu.walk(submits[i][1], kinds[i], _noop, word=word)

        for i, (cycle, _vpn) in enumerate(submits):
            engine.schedule(cycle, submit, i)
        engine.run()

        spans = _reference_walks(submits, walkers=2, pwc_entries=16, per_level=100)
        assert [r.started_at for r in requests] == [start for start, _end in spans]
        waits = [start - cycle for (start, _end), (cycle, _vpn) in zip(spans, submits)]
        assert sum(1 for w in waits if w > 0) > 50  # the queue is exercised
        for kind in WalkKind:
            totals = [
                end - cycle
                for (_start, end), (cycle, _vpn), k in zip(spans, submits, kinds)
                if k is kind
            ]
            stat = gmmu.stats.latency(f"total.{kind.value}")
            assert (stat.count, stat.total, stat.max) == (len(totals), sum(totals), max(totals))
