"""Edge-case tests: bursts on the GMMU's walk queue.

The walk queue is an unbounded FIFO in front of the walker threads, so
a burst larger than the pool queues in submission order and nothing is
dropped or refused.
"""

from repro.config import GMMUConfig
from repro.gmmu.gmmu import GMMU
from repro.gmmu.request import WalkKind
from repro.memory import pte
from repro.memory.address import LAYOUT_4K
from repro.memory.page_table import PageTable
from repro.sim.engine import Engine


def _noop(_result):
    pass


def make_gmmu(walkers=1):
    engine = Engine()
    table = PageTable(LAYOUT_4K)
    config = GMMUConfig(walker_threads=walkers)
    return engine, table, GMMU(engine, config, table)


class TestQueueBackpressure:
    """A burst beyond the walker pool waits in the FIFO queue."""

    def test_all_submissions_eventually_complete(self):
        """Submissions beyond the free walkers queue but never drop."""
        engine, table, gmmu = make_gmmu(walkers=1)
        results = []
        for i in range(20):
            table.set_entry(i << 18, pte.make_pte(i))
            gmmu.walk(i << 18, WalkKind.DEMAND, results.append)
        engine.run()
        assert sorted(results) == sorted(pte.make_pte(i) for i in range(20))
        assert gmmu.stats.latency("total.demand").count == 20

    def test_fifo_service_order(self):
        engine, table, gmmu = make_gmmu(walkers=1)
        order = []
        for i in range(6):
            table.set_entry(i << 18, pte.make_pte(i))
            gmmu.walk(i << 18, WalkKind.DEMAND, lambda _word, i=i: order.append(i))
        engine.run()
        assert order == sorted(order)

    def test_queue_wait_grows_under_burst(self):
        engine, table, gmmu = make_gmmu(walkers=1)
        for i in range(10):
            table.set_entry(i << 18, pte.make_pte(i))
            gmmu.walk(i << 18, WalkKind.DEMAND, _noop)
        engine.run()
        wait = gmmu.stats.latency("queue_wait.demand")
        assert wait.max > wait.min

    def test_mixed_kinds_share_the_same_queue(self):
        """An invalidation burst delays a later demand walk (§5.2)."""
        engine, table, gmmu = make_gmmu(walkers=1)
        for i in range(8):
            table.set_entry(i << 18, pte.make_pte(i))
            gmmu.walk(i << 18, WalkKind.INVALIDATE, _noop)
        table.set_entry(0x7F << 18, pte.make_pte(1))
        demand = gmmu.walk(0x7F << 18, WalkKind.DEMAND, _noop)
        engine.run()
        assert demand.started_at - demand.issued_at >= 8 * 100

    def test_load_accounting(self):
        engine, table, gmmu = make_gmmu(walkers=2)
        for i in range(6):
            table.set_entry(i << 18, pte.make_pte(i))
            gmmu.walk(i << 18, WalkKind.DEMAND, _noop)
        # Before the engine runs, submissions are queued or pending.
        assert gmmu.load >= 0
        engine.run()
        assert gmmu.load == 0
        assert gmmu.is_idle
