"""Unit tests for the hardened-invalidation tracker, plus end-to-end
retry behaviour under injected message loss."""

import pytest

from repro.config import FaultConfig, InvalidationScheme, baseline_config
from repro.gpu.system import MultiGPUSystem
from repro.sim.engine import Engine
from repro.uvm.driver import _Invalidation
from repro.uvm.protocol import InvalidationTracker
from repro.workloads.base import Workload

_VPN = 1 << 20


def _tracker(**fault_overrides):
    engine = Engine()
    tracker = InvalidationTracker(engine, FaultConfig(**fault_overrides))
    return engine, tracker


class TestTrackerLifecycle:
    def test_begin_registers_synchronously(self):
        _, tracker = _tracker()
        pending = tracker.begin(1, _VPN)
        assert tracker.has_pending()
        assert tracker.is_pending_pair(1, _VPN)
        assert not pending.acked

    def test_sequence_numbers_are_unique(self):
        _, tracker = _tracker()
        seqs = {tracker.begin(0, _VPN + i).seq for i in range(10)}
        assert len(seqs) == 10

    def test_first_ack_succeeds_and_retires(self):
        _, tracker = _tracker()
        pending = tracker.begin(1, _VPN)
        assert tracker.deliver_ack(pending) is True
        assert pending.acked
        assert not tracker.has_pending()
        assert not tracker.is_pending_pair(1, _VPN)

    def test_duplicate_ack_is_idempotent(self):
        _, tracker = _tracker()
        pending = tracker.begin(1, _VPN)
        assert tracker.deliver_ack(pending) is True
        assert tracker.deliver_ack(pending) is False
        assert tracker.stats.counter("duplicate_acks").value == 1

    def test_pending_pair_counts_overlapping_invalidations(self):
        """Two in-flight invalidations for the same (gpu, vpn): the pair
        stays pending until *both* retire."""
        _, tracker = _tracker()
        a = tracker.begin(1, _VPN)
        b = tracker.begin(1, _VPN)
        tracker.deliver_ack(a)
        assert tracker.is_pending_pair(1, _VPN)
        tracker.deliver_ack(b)
        assert not tracker.is_pending_pair(1, _VPN)


class TestSuspectState:
    def test_abandon_marks_suspect_and_keeps_pending(self):
        _, tracker = _tracker()
        pending = tracker.begin(2, _VPN)
        tracker.abandon(pending)
        assert 2 in tracker.suspects
        # The target may still hold a stale translation: the record must
        # stay visible to the watchdog's ack deadline and the auditor.
        assert tracker.has_pending()
        assert tracker.is_pending_pair(2, _VPN)

    def test_late_ack_rescues_abandoned_invalidation(self):
        _, tracker = _tracker()
        pending = tracker.begin(2, _VPN)
        tracker.abandon(pending)
        assert tracker.deliver_ack(pending) is True
        assert pending.acked
        assert not tracker.has_pending()
        assert tracker.stats.counter("acks_after_abandon").value == 1
        # Suspect status is only cleared by a clean-ack streak.
        assert 2 in tracker.suspects

    def test_suspect_recovers_after_clean_streak(self):
        _, tracker = _tracker(suspect_recovery=3)
        tracker.abandon(tracker.begin(2, _VPN))
        for i in range(3):
            assert 2 in tracker.suspects
            tracker.deliver_ack(tracker.begin(2, _VPN + 1 + i))
        assert 2 not in tracker.suspects
        assert tracker.stats.counter("suspects_recovered").value == 1

    def test_retry_breaks_clean_streak(self):
        _, tracker = _tracker(suspect_recovery=2)
        tracker.abandon(tracker.begin(2, _VPN))
        tracker.deliver_ack(tracker.begin(2, _VPN + 1))
        tracker.note_retry(2)                      # timeout resets the streak
        tracker.deliver_ack(tracker.begin(2, _VPN + 2))
        assert 2 in tracker.suspects               # streak restarted at 1
        tracker.deliver_ack(tracker.begin(2, _VPN + 3))
        assert 2 not in tracker.suspects

    def test_retried_ack_does_not_count_toward_streak(self):
        _, tracker = _tracker(suspect_recovery=1)
        tracker.abandon(tracker.begin(2, _VPN))
        pending = tracker.begin(2, _VPN + 1)
        pending.attempts = 1                       # arrived only after a retry
        tracker.deliver_ack(pending)
        assert 2 in tracker.suspects


class TestDeadlines:
    def test_deadline_violation_reports_oldest(self):
        engine, tracker = _tracker()
        pending = tracker.begin(1, _VPN)
        engine.schedule(10_000, lambda: None)
        engine.run()
        message = tracker.deadline_violation(5_000)
        assert message is not None and f"seq={pending.seq}" in message
        assert "unacked for 10000 cycles" in message
        assert tracker.deadline_violation(10_000) is not None
        assert tracker.deadline_violation(10_001) is None
        assert tracker.deadline_violation(20_000) is None

    def test_dump_lists_pending_and_suspects(self):
        _, tracker = _tracker()
        tracker.abandon(tracker.begin(3, _VPN))
        dump = tracker.dump()
        assert "pending invalidations: 1" in dump
        assert "suspect GPUs: [3]" in dump


def _migration_workload():
    hot = _VPN
    trace0 = [(10, hot, True), (20, hot, False)]
    trace1 = [(10, _VPN + 50, False)] + [(30, hot, False) for _ in range(6)]
    return Workload(name="retry-e2e", traces=[[trace0], [trace1]])


def _idyll_config(**fault_overrides):
    from dataclasses import replace

    config = baseline_config(2).with_scheme(InvalidationScheme.IDYLL)
    config = replace(config, trace_lanes=1, inflight_per_cu=4)
    return config.with_faults(**fault_overrides)


class TestEndToEndRetry:
    def test_dropped_invalidations_are_retried_to_completion(self):
        """With a lossy (but not total) channel the migration's shootdown
        must eventually land: retries > 0, run completes, audit clean."""
        config = _idyll_config(
            drop_rate=0.4, ack_timeout=1200, ack_timeout_max=4800, max_retries=8
        )
        result = MultiGPUSystem(config, seed=13).run(_migration_workload())
        assert not result.aborted, result.abort_reason
        assert result.migrations >= 1
        assert result.inval_retries >= 1
        assert result.audits_run >= 1          # quiesce audit auto-armed

    def test_duplicate_requests_are_deduplicated(self):
        config = _idyll_config(duplicate_rate=1.0)
        result = MultiGPUSystem(config, seed=13).run(_migration_workload())
        assert not result.aborted, result.abort_reason
        assert result.inval_duplicates >= 1

    def test_same_seed_same_faulted_result(self):
        config = _idyll_config(drop_rate=0.3, delay_rate=0.3, duplicate_rate=0.2,
                               ack_timeout=1500, ack_timeout_max=6000)
        a = MultiGPUSystem(config, seed=21).run(_migration_workload())
        b = MultiGPUSystem(config, seed=21).run(_migration_workload())
        assert (a.exec_time, a.inval_retries, a.faults_injected) == (
            b.exec_time, b.inval_retries, b.faults_injected
        )

    def test_faults_disabled_means_no_protocol_overhead(self, monkeypatch):
        """Without an injector no message can be lost: every shootdown
        still gets a tracker record, but no retry timer is ever armed,
        and nothing retries, times out or arrives twice."""
        timers = []
        schedule = Engine.schedule

        def spy(engine, delay, fn, *args):
            if getattr(fn, "__func__", None) is _Invalidation._timed_out:
                timers.append(engine.now)
            schedule(engine, delay, fn, *args)

        monkeypatch.setattr(Engine, "schedule", spy)
        config = _idyll_config()                  # all rates zero
        system = MultiGPUSystem(config, seed=13)
        assert system.injector is None
        result = system.run(_migration_workload())
        assert system.driver.stats.counter("invalidations_sent").value >= 1
        assert timers == []
        assert result.faults_injected == 0
        assert result.inval_retries == 0
        assert result.inval_timeouts == 0
        assert result.inval_duplicates == 0
        assert not system.driver.tracker.has_pending()
        assert not result.aborted
