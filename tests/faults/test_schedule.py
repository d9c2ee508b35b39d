"""Unit tests for the failure-trace timeline and scheduled injector."""

import pickle

import pytest

from repro.config import ChaosEpisode, ChaosTraceSpec, FaultConfig
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultTimeline, ScheduledFaultInjector
from repro.interconnect.topology import topology_fingerprint


def _spec(episodes, num_gpus=2, horizon=100_000):
    return ChaosTraceSpec(
        seed=1, horizon=horizon, num_gpus=num_gpus,
        fingerprint=topology_fingerprint(num_gpus),
        episodes=tuple(episodes),
    )


def _ep(eid, kind, target, start, duration, severity=0.5):
    return ChaosEpisode(eid=eid, kind=kind, target=target, start=start,
                        duration=duration, severity=severity)


class FakeEngine:
    """Just a clock: the injector only reads ``engine.now``."""

    def __init__(self):
        self.now = 0


class TestTimeline:
    def test_half_open_activity_window(self):
        tl = FaultTimeline(_spec([_ep(0, "link_down", "pcie0.up", 100, 50, 1.0)]))
        assert tl.active_at(99) == ()
        assert [e.eid for e in tl.active_at(100)] == [0]
        assert [e.eid for e in tl.active_at(149)] == [0]
        assert tl.active_at(150) == ()          # [start, end): end excluded

    def test_forward_queries_then_backwards_rebuild(self):
        eps = [_ep(0, "degraded", "pcie0.up", 10, 30),
               _ep(1, "irmb_wave", "gpu0", 20, 100),
               _ep(2, "link_down", "pcie0.up", 60, 10, 1.0)]
        tl = FaultTimeline(_spec(eps))
        assert {e.eid for e in tl.active_at(25)} == {0, 1}
        assert {e.eid for e in tl.active_at(65)} == {1, 2}
        # A query about an earlier cycle: the cursor must rebuild, not skip.
        assert {e.eid for e in tl.active_at(25)} == {0, 1}

    def test_link_precedence_outage_dominates(self):
        """Overlapping hand-written episodes: link_down beats degraded
        regardless of severity; degraded ties break to severity."""
        eps = [_ep(0, "degraded", "l.up", 10, 100, 0.9),
               _ep(1, "link_down", "l.up", 20, 30, 1.0),
               _ep(2, "degraded", "l.up", 20, 100, 0.3)]
        tl = FaultTimeline(_spec(eps))
        assert tl.link_episode("l.up", 15).eid == 0
        assert tl.link_episode("l.up", 25).eid == 1
        assert tl.link_episode("l.up", 60).eid == 0   # outage over, best severity
        assert tl.link_episode("other", 25) is None

    def test_gpu_episode_filters_kind_and_site(self):
        eps = [_ep(0, "walker_stall_storm", "gpu0", 10, 50, 0.4),
               _ep(1, "irmb_wave", "gpu0", 10, 50, 0.8),
               _ep(2, "walker_stall_storm", "gpu1", 10, 50, 0.9)]
        tl = FaultTimeline(_spec(eps))
        assert tl.gpu_episode("gpu0", "walker_stall_storm", 20).eid == 0
        assert tl.gpu_episode("gpu0", "irmb_wave", 20).eid == 1
        assert tl.gpu_episode("gpu1", "irmb_wave", 20) is None

    def test_exhausted(self):
        tl = FaultTimeline(_spec([_ep(0, "degraded", "l.up", 10, 20)]))
        assert not tl.exhausted(5)      # episode still ahead
        assert not tl.exhausted(15)     # active
        assert tl.exhausted(30)


def _chaos(episodes, *, config=None, seed=7, num_gpus=2):
    engine = FakeEngine()
    timeline = FaultTimeline(_spec(episodes, num_gpus=num_gpus))
    injector = ScheduledFaultInjector(
        config or FaultConfig(), seed, timeline, engine
    )
    return engine, injector


class TestScheduledInjector:
    def test_pure_passthrough_outside_episodes(self):
        """Zero base rates + no active episode = clean plans, zero stalls,
        no IRMB pressure — bit-for-bit an unfaulted run."""
        engine, inj = _chaos([_ep(0, "link_down", "pcie0.up", 5_000, 100, 1.0)])
        engine.now = 100                # before the episode
        for _ in range(20):
            assert inj.message_plan("uvm.inval", link="pcie0.up").clean
            assert inj.walker_stall("gpu0.gmmu") == 0
            assert not inj.irmb_pressure("gpu0.irmb")
        assert inj.injected_total() == 0

    def test_link_down_drops_everything_on_target(self):
        engine, inj = _chaos([_ep(0, "link_down", "pcie0.up", 100, 50, 1.0)])
        engine.now = 120
        plan = inj.message_plan("uvm.inval", link="pcie0.up")
        assert plan.drop and "chaos.link_down" in plan.kinds
        assert inj.message_plan("uvm.inval", link="pcie1.up").clean
        assert inj.message_plan("uvm.inval").clean   # linkless site untouched
        assert inj.episode_stats(0) == {"chaos.drop": 1}

    def test_degraded_drop_probability_tracks_severity(self):
        engine, inj = _chaos([_ep(0, "degraded", "pcie0.up", 100, 10_000, 0.55)])
        engine.now = 200
        drops = sum(
            inj.message_plan("uvm.inval", link="pcie0.up").drop
            for _ in range(400)
        )
        assert 0.40 < drops / 400 < 0.70

    def test_walker_storm_and_irmb_wave_only_hit_their_gpu(self):
        engine, inj = _chaos([
            _ep(0, "walker_stall_storm", "gpu0", 100, 1_000, 1.0),
            _ep(1, "irmb_wave", "gpu1", 100, 1_000, 1.0),
        ])
        engine.now = 500
        assert inj.walker_stall("gpu0.gmmu") > 0
        assert inj.walker_stall("gpu1.gmmu") == 0
        assert inj.irmb_pressure("gpu1.irmb")
        assert not inj.irmb_pressure("gpu0.irmb")
        assert inj.chaos_injected_total() == 2

    def test_base_streams_unperturbed_by_overlay(self):
        """Chaos decisions draw from dedicated streams: with the same
        base rates, the uniform injector and a mid-episode scheduled
        injector make identical *base* decisions."""
        config = FaultConfig(drop_rate=0.2, duplicate_rate=0.2, delay_rate=0.2)
        base = FaultInjector(config, seed=9)
        engine, overlay = _chaos(
            [_ep(0, "degraded", "pcie0.up", 1, 99_000, 0.5)],
            config=config, seed=9,
        )
        engine.now = 5_000              # mid-episode the whole time
        for _ in range(60):
            want = base.message_plan("uvm.inval")
            got = overlay.message_plan("uvm.inval", link="pcie0.up")
            if not want.drop and got.drop:
                assert got.kinds[-1] == "chaos.degraded"   # overlay's doing
            else:
                assert got == want

    def test_fastpath_safe_iff_no_base_rates(self):
        _, quiet = _chaos([])
        assert quiet.fastpath_safe
        _, noisy = _chaos([], config=FaultConfig(drop_rate=0.1))
        assert not noisy.fastpath_safe

    def test_deterministic_across_instances(self):
        eps = [_ep(0, "degraded", "pcie0.up", 1, 99_000, 0.5)]
        ea, a = _chaos(eps)
        eb, b = _chaos(eps)
        ea.now = eb.now = 2_000
        plans_a = [a.message_plan("t", link="pcie0.up") for _ in range(50)]
        plans_b = [b.message_plan("t", link="pcie0.up") for _ in range(50)]
        assert plans_a == plans_b

    def test_snapshot_restore_resumes_streams_and_ledger(self):
        """A checkpoint pickles the injector with the rest of the
        system: the copy keeps the ledger and draws the same streams."""
        eps = [_ep(0, "degraded", "pcie0.up", 1, 99_000, 0.6)]
        engine, inj = _chaos(eps)
        engine.now = 1_000
        for _ in range(30):
            inj.message_plan("t", link="pcie0.up")
        fresh = pickle.loads(pickle.dumps(inj))
        ledger_at_snapshot = inj.episode_stats(0)
        tail = [inj.message_plan("t", link="pcie0.up") for _ in range(30)]

        assert fresh.engine.now == 1_000
        assert fresh.episode_stats(0) == ledger_at_snapshot
        resumed = [fresh.message_plan("t", link="pcie0.up") for _ in range(30)]
        assert resumed == tail
        assert fresh.episode_stats(0) == inj.episode_stats(0)
