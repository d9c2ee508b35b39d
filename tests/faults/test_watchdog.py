"""Liveness watchdog: a lost-ack deadlock must abort loudly (with the
protocol dump and partial statistics), never hang or silently complete."""

import pytest

from repro.config import InvalidationScheme, baseline_config
from repro.gpu.system import MultiGPUSystem
from repro.sim.engine import Engine, LivenessWatchdog, WatchdogError
from repro.workloads.base import Workload

_VPN = 1 << 20


def _migration_workload():
    hot = _VPN
    trace0 = [(10, hot, True), (20, hot, False)]
    trace1 = [(10, _VPN + 50, False)] + [(30, hot, False) for _ in range(6)]
    return Workload(name="lost-ack", traces=[[trace0], [trace1]])


def _lossy_config(**overrides):
    from dataclasses import replace

    config = baseline_config(2).with_scheme(InvalidationScheme.IDYLL)
    config = replace(config, trace_lanes=1, inflight_per_cu=4)
    # Every invalidation/ack packet is dropped: the shootdown can never
    # be acknowledged, so retries exhaust and the run must abort.
    faults = dict(
        drop_rate=1.0,
        ack_timeout=300,
        ack_timeout_max=600,
        max_retries=2,
        watchdog_interval=500,
        watchdog_stall_window=20_000,
        ack_deadline=4_000,
    )
    faults.update(overrides)
    return config.with_faults(**faults)


class TestWatchdogUnit:
    def test_stalled_progress_aborts(self):
        engine = Engine()

        def ticker():
            engine.defer(100, ticker)

        engine.schedule(0, ticker)
        LivenessWatchdog(
            engine,
            interval=50,
            stall_window=500,
            progress_fn=lambda: 0,
            dump_fn=lambda: "diagnostic snapshot",
        ).start()
        with pytest.raises(WatchdogError) as exc:
            engine.run(until=100_000)
        assert "no forward progress" in str(exc.value)
        assert exc.value.dump == "diagnostic snapshot"

    def test_advancing_progress_never_aborts(self):
        engine = Engine()
        beats = [0]

        def ticker():
            if beats[0] < 50:
                beats[0] += 1
                engine.defer(100, ticker)

        engine.schedule(0, ticker)
        watchdog = LivenessWatchdog(
            engine,
            interval=50,
            stall_window=500,
            progress_fn=lambda: beats[0],
            active_fn=lambda: beats[0] < 50,
        )
        watchdog.start()
        engine.run()
        assert watchdog.checks > 0

    def test_deadline_overrides_progress(self):
        """A hard ack-deadline violation aborts even while other lanes
        keep the progress metric moving."""
        engine = Engine()
        beats = [0]

        def ticker():
            beats[0] += 1
            engine.defer(100, ticker)

        engine.schedule(0, ticker)
        LivenessWatchdog(
            engine,
            interval=50,
            stall_window=10_000,
            progress_fn=lambda: beats[0],
            deadline_fn=lambda: "seq=1 unacked" if engine.now > 1000 else None,
        ).start()
        with pytest.raises(WatchdogError) as exc:
            engine.run(until=100_000)
        assert "hard deadline exceeded" in str(exc.value)


class TestLostAckDeadlock:
    def test_total_ack_loss_aborts_with_dump(self):
        system = MultiGPUSystem(_lossy_config(), seed=13)
        result = system.run(_migration_workload())
        assert result.aborted
        assert "deadline" in result.abort_reason or "progress" in result.abort_reason
        # The dump carries the stuck protocol state for diagnosis.
        assert "pending invalidations" in system.abort_dump
        assert "suspect GPUs" in system.abort_dump

    def test_partial_stats_flushed_on_abort(self):
        """Satellite regression: an aborted run used to lose every stat;
        the collector must still flush what happened up to the abort."""
        result = MultiGPUSystem(_lossy_config(), seed=13).run(_migration_workload())
        assert result.aborted
        assert result.exec_time > 0
        assert result.far_faults >= 1
        assert result.invalidations_sent >= 1
        assert result.inval_timeouts >= 1
        assert result.inval_abandoned >= 1
        assert result.faults_injected >= 1

    def test_watchdog_disabled_still_refuses_silent_deadlock(self):
        """Even with the watchdog off, a drained calendar with unretired
        lanes must be reported as an abort, not a completed run."""
        config = _lossy_config(watchdog_enabled=False, audit_on_quiesce=False)
        system = MultiGPUSystem(config, seed=13)
        result = system.run(_migration_workload())
        assert result.aborted
        assert "deadlock" in result.abort_reason

    def test_runner_warns_on_aborted_run(self, capsys):
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(lanes=1, accesses_per_lane=60, seed=7)
        result = runner.run("PR", _lossy_config())
        assert result.aborted
        assert "WARNING: run aborted" in capsys.readouterr().err
