"""Unit tests for the lazy-invalidation controller (§6.3)."""

from repro.config import GMMUConfig, IRMBConfig
from repro.core.irmb import IRMB
from repro.core.lazy import LazyInvalidationController
from repro.gmmu.gmmu import GMMU
from repro.memory import pte
from repro.memory.address import LAYOUT_4K
from repro.memory.page_table import PageTable
from repro.sim.engine import Engine


def _noop(_result):
    pass


def make_stack(bases=4, offsets=4, walkers=2):
    engine = Engine()
    table = PageTable(LAYOUT_4K)
    gmmu = GMMU(engine, GMMUConfig(walker_threads=walkers), table)
    irmb = IRMB(IRMBConfig(bases=bases, offsets_per_base=offsets), LAYOUT_4K)
    lazy = LazyInvalidationController(engine, irmb, gmmu)
    return engine, table, gmmu, irmb, lazy


class TestAcceptAndProbe:
    def test_accept_buffers_without_walking(self):
        engine, table, gmmu, irmb, lazy = make_stack()
        table.set_entry(5, pte.make_pte(1))
        lazy.accept_invalidation(5)
        assert lazy.probe(5)
        # The PTE is still (stale-)valid: no walk has happened yet.
        assert table.translate(5) is not None

    def test_probe_miss(self):
        _engine, _table, _gmmu, _irmb, lazy = make_stack()
        assert not lazy.probe(123)


class TestIdleWriteback:
    def test_buffered_invalidation_drains_when_walker_idle(self):
        engine, table, _gmmu, irmb, lazy = make_stack()
        table.set_entry(5, pte.make_pte(1))
        lazy.accept_invalidation(5)
        engine.run()
        # Idle writeback propagated the invalidation to the page table.
        assert table.translate(5) is None
        assert irmb.is_empty
        assert lazy.stats.counter("idle_writeback_entries").value == 1

    def test_stop_halts_writeback_loop(self):
        engine, table, _gmmu, irmb, lazy = make_stack()
        lazy.stop()
        table.set_entry(5, pte.make_pte(1))
        lazy.accept_invalidation(5)
        engine.run()
        # Loop stopped: the entry stays buffered.
        assert not irmb.is_empty

    def test_flush_drains_everything(self):
        engine, table, _gmmu, irmb, lazy = make_stack()
        lazy.stop()
        for vpn in (5, 600, 1200):
            table.set_entry(vpn, pte.make_pte(1))
            lazy.accept_invalidation(vpn)
        flushed = []
        engine.schedule(0, lazy.flush, lambda: flushed.append(engine.now))
        engine.run()
        assert irmb.is_empty
        for vpn in (5, 600, 1200):
            assert table.translate(vpn) is None
        assert flushed == [engine.now] and engine.now > 0


class TestEvictionPropagation:
    def test_capacity_eviction_walks_batch(self):
        engine, table, gmmu, _irmb, lazy = make_stack(bases=1, offsets=2)
        lazy.stop()  # isolate the eviction path from idle writeback
        for vpn in ((1 << 9) | 0, (1 << 9) | 1):
            table.set_entry(vpn, pte.make_pte(1))
            lazy.accept_invalidation(vpn)
        # Third insert to the same base overflows the offsets -> batch.
        table.set_entry((1 << 9) | 2, pte.make_pte(1))
        lazy.accept_invalidation((1 << 9) | 2)
        engine.run()
        assert table.translate((1 << 9) | 0) is None
        assert table.translate((1 << 9) | 1) is None
        assert lazy.stats.counter("propagated_batches").value == 1
        assert lazy.stats.counter("propagated_vpns").value == 2

    def test_batch_shares_page_walk_cache(self):
        """Merged-entry VPNs share a leaf node: after the first walk the
        rest are single-access PWC hits (§6.3 amortisation)."""
        engine, table, gmmu, _irmb, lazy = make_stack(bases=1, offsets=8, walkers=1)
        lazy.stop()
        base = 7 << 9
        for off in range(8):
            table.set_entry(base | off, pte.make_pte(off))
            lazy.accept_invalidation(base | off)
        table.set_entry((9 << 9), pte.make_pte(1))
        lazy.accept_invalidation(9 << 9)  # evicts the full base-7 entry
        engine.run()
        levels = gmmu.stats.latency("walk_levels.invalidate")
        # 8 walks: one cold (4 levels) + seven leaf hits (1 level each).
        assert levels.count == 8
        assert levels.total == 4 + 7


class TestNewMapping:
    def test_new_mapping_cancels_buffered_invalidation(self):
        engine, table, _gmmu, irmb, lazy = make_stack()
        lazy.stop()
        table.set_entry(5, pte.make_pte(1))
        lazy.accept_invalidation(5)
        assert lazy.on_new_mapping(5) is True
        assert irmb.is_empty
        assert lazy.stats.counter("cancelled_by_mapping").value == 1

    def test_new_mapping_aborts_inflight_walk(self):
        """An invalidation already propagating must not clobber the
        fresh mapping installed by a racing UPDATE walk."""
        engine, table, gmmu, _irmb, lazy = make_stack(bases=1, offsets=1)
        lazy.stop()
        table.set_entry(5, pte.make_pte(1))
        lazy.accept_invalidation(5)
        table.set_entry(600, pte.make_pte(2))
        lazy.accept_invalidation(600)  # evicts vpn 5 -> walk queued
        lazy.on_new_mapping(5)  # aborts the queued walk
        from repro.gmmu.request import WalkKind

        gmmu.walk(5, WalkKind.UPDATE, _noop, word=pte.make_pte(99))
        engine.run()
        word = table.translate(5)
        assert word is not None and pte.ppn(word) == 99

    def test_new_mapping_without_pending_is_false(self):
        _engine, _table, _gmmu, _irmb, lazy = make_stack()
        assert lazy.on_new_mapping(777) is False

    def test_cancel_of_queued_walk_spares_later_invalidation(self):
        """A mapping that cancels a queued walk must not also swallow a
        later invalidation of the same VPN: that one's walk still runs
        (or the VPN stays pending, so the IRMB masks the stale PTE)."""
        from repro.gmmu.request import WalkKind

        engine, table, gmmu, _irmb, lazy = make_stack(bases=1, offsets=4, walkers=1)
        a, v = (1 << 9) | 0, (1 << 9) | 4
        for vpn in (a, v):
            table.set_entry(vpn, pte.make_pte(1))
            lazy.accept_invalidation(vpn)
        engine.run(until=150)  # idle writeback: walking a, v queued behind it
        assert lazy.on_new_mapping(v) is True
        gmmu.walk(v, WalkKind.UPDATE, _noop, word=pte.make_pte(99))
        lazy.accept_invalidation(v)  # the page moves again
        lazy.accept_invalidation(2 << 9)  # another base evicts v's entry
        for i in range(10):
            gmmu.walk((5 << 9) | i, WalkKind.DEMAND, _noop)
        engine.run(until=1200)
        assert table.translate(v) is None or v in lazy.pending_vpns()
