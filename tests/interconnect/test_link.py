"""Unit tests for links and topology."""

import random

import pytest

from repro.config import InterconnectConfig
from repro.interconnect.link import CONTROL_MESSAGE_BYTES, Link
from repro.interconnect.topology import Interconnect
from repro.sim.engine import Engine


def _noop():
    pass


def _arrivals(engine):
    """A continuation that records the cycle it runs in, and its log."""
    log = []
    return log, lambda tag=None: log.append((engine.now, tag))


class TestLink:
    def test_transfer_takes_serialisation_plus_latency(self):
        engine = Engine()
        link = Link(engine, bandwidth_gbps=1.0, latency=50, clock_ghz=1.0)
        log, arrived = _arrivals(engine)
        link.transfer(100, arrived)  # 100 B at 1 GB/s @1 GHz = 100 cycles
        engine.run()
        assert log == [(150, None)]
        assert engine.now == 150

    def test_serialisation_contention(self):
        """Two transfers share the port: the second waits its turn."""
        engine = Engine()
        link = Link(engine, bandwidth_gbps=1.0, latency=0, clock_ghz=1.0)
        log, arrived = _arrivals(engine)
        link.transfer(100, arrived, "first")
        link.transfer(100, arrived, "second")
        engine.run()
        assert log == [(100, "first"), (200, "second")]
        assert engine.now == 200

    def test_propagation_is_pipelined(self):
        """Latency overlaps with the next transfer's serialisation."""
        engine = Engine()
        link = Link(engine, bandwidth_gbps=1.0, latency=1000, clock_ghz=1.0)
        link.transfer(10, _noop)
        link.transfer(10, _noop)
        engine.run()
        assert engine.now == 20 + 1000  # not 2x latency

    def test_continuation_runs_in_arrival_cycle_before_later_ready_work(self):
        """The arrival's calendar entry runs the continuation itself: in
        the arrival cycle, before a same-cycle entry pushed after the
        transfer started and before the ready work that entry queues."""
        engine = Engine()
        link = Link(engine, bandwidth_gbps=1.0, latency=50, clock_ghz=1.0)
        order = []

        def later():
            order.append(("later", engine.now))
            engine.schedule(0, order.append, ("queued", engine.now))

        link.transfer(100, lambda: order.append(("arrived", engine.now)))
        engine.schedule(150, later)
        engine.run()
        assert order == [("arrived", 150), ("later", 150), ("queued", 150)]

    def test_continuation_receives_its_arguments(self):
        engine = Engine()
        link = Link(engine, bandwidth_gbps=1.0, latency=0, clock_ghz=1.0)
        got = []
        link.transfer(10, lambda *args: got.append(args), 1, "two")
        engine.run()
        assert got == [(1, "two")]

    def test_nvlink_page_transfer_cycles(self):
        """Table 2: 4 KB over 300 GB/s NVLink ~ 14 cycles of occupancy."""
        link = Link(Engine(), bandwidth_gbps=300.0, latency=200)
        assert link.serialisation_cycles(4096) == round(4096 / 300)

    def test_stats_accumulate(self):
        engine = Engine()
        link = Link(engine, 1.0, 0)
        link.transfer(10, _noop)
        link.transfer(CONTROL_MESSAGE_BYTES, _noop)
        engine.run()
        assert link.stats.counter("transfers").value == 2
        assert link.stats.counter("bytes").value == 10 + CONTROL_MESSAGE_BYTES

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link(Engine(), 0.0, 1)


class TestInterconnect:
    def make(self, num_gpus=4):
        engine = Engine()
        return engine, Interconnect(engine, InterconnectConfig(), num_gpus)

    def test_gpu_to_gpu_completes(self):
        engine, net = self.make()
        log, arrived = _arrivals(engine)
        net.gpu_to_gpu(0, 1, 4096, arrived)
        engine.run()
        assert log == [(engine.now, None)]
        assert net.inflight == 0

    def test_self_transfer_rejected(self):
        _engine, net = self.make()
        with pytest.raises(ValueError):
            net.gpu_to_gpu(2, 2, 64, _noop)

    def test_unknown_gpu_rejected(self):
        _engine, net = self.make(2)
        with pytest.raises(ValueError):
            net.gpu_to_host(5, 64, _noop)

    def test_traffic_accounting(self):
        engine, net = self.make()
        net.gpu_to_gpu(0, 1, 1000, _noop)
        net.gpu_to_host(0, 64, _noop)
        net.host_to_gpu(1, 64, _noop)
        engine.run()
        assert net.nvlink_bytes() == 1000
        assert net.pcie_bytes() == 128

    def test_pcie_slower_than_nvlink(self):
        """Table 2: 32 GB/s PCIe vs 300 GB/s NVLink."""
        engine, net = self.make()
        t0 = engine.now
        net.gpu_to_gpu(0, 1, 1 << 20, _noop)
        engine.run()
        nv = engine.now - t0
        engine2, net2 = self.make()
        net2.host_to_gpu(0, 1 << 20, _noop)
        engine2.run()
        assert engine2.now > nv


def _reference_arrivals(issues, link):
    """Analytic FIFO port: a packet is ready at its issue cycle plus its
    hold; ready packets take the port in (ready cycle, undelayed first,
    issue order); each occupies it for its serialisation time, then
    propagates for the link latency."""
    order = sorted(
        range(len(issues)),
        key=lambda i: (issues[i][0] + issues[i][2], issues[i][2] > 0, i),
    )
    arrivals = [0] * len(issues)
    free_at = 0
    for i in order:
        issued, size, hold = issues[i]
        start = max(issued + hold, free_at)
        free_at = start + link.serialisation_cycles(size)
        arrivals[i] = free_at + link.latency
    return arrivals


class TestPortTiming:
    """A seeded schedule pins every arrival cycle on one link: control
    packets, cache lines and pages, same-cycle bursts, and packets held
    by an ``extra_delay`` before they queue for the port."""

    @staticmethod
    def schedule(seed=11, count=300):
        rng = random.Random(seed)
        issues, cycle = [], 1
        for _ in range(count):
            cycle += rng.choice((0, 0, 0, 1, 3, 40, 150, 700))
            size = rng.choice((64, 64, 128, 4096))
            hold = rng.choice((1, 25, 130, 400)) if rng.random() < 0.1 else 0
            issues.append((cycle, size, hold))
        return issues

    @pytest.mark.parametrize("latency", [0, 150])
    def test_seeded_schedule_arrival_cycles(self, latency):
        engine = Engine()
        link = Link(engine, bandwidth_gbps=32.0, latency=latency, clock_ghz=1.0)
        issues = self.schedule()
        arrived = [None] * len(issues)

        def issue(i, size, hold):
            def landed(i=i):
                arrived[i] = engine.now
            link.transfer(size, landed, extra_delay=hold)

        for i, (cycle, size, hold) in enumerate(issues):
            engine.schedule(cycle, issue, i, size, hold)
        engine.run()

        expected = _reference_arrivals(issues, link)
        assert arrived == expected
        assert any(h for _c, _s, h in issues)
        times = [a - (c + h) for a, (c, _s, h) in zip(expected, issues)]
        stat = link.stats.latency("transfer_time")
        assert (stat.count, stat.total, stat.min, stat.max) == (
            len(issues), sum(times), min(times), max(times),
        )
        # The schedule exercises queueing, not just free-port transfers.
        assert max(times) > link.serialisation_cycles(4096) + latency
        assert link.stats.counter("delayed_transfers").value == sum(
            1 for _c, _s, h in issues if h
        )
        assert link.stats.counter("transfers").value == len(issues)
