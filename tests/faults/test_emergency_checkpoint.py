"""Watchdog abort × checkpointing.

A run that aborts keeps what explains it — the protocol-state dump and
its partial statistics — and the periodic checkpoints it wrote before
the abort.  There is no emergency checkpoint: each periodic one is an
exact cut of the run, so resuming it reproduces the same abort.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro.config import InvalidationScheme, baseline_config
from repro.gpu.system import MultiGPUSystem
from repro.sim import snapshot as snap
from repro.workloads.base import Workload

_VPN = 1 << 20


def _migration_workload():
    hot = _VPN
    trace0 = [(10, hot, True), (20, hot, False)]
    trace1 = [(10, _VPN + 50, False)] + [(30, hot, False) for _ in range(6)]
    return Workload(name="lost-ack", traces=[[trace0], [trace1]])


def _lossy_config():
    config = baseline_config(2).with_scheme(InvalidationScheme.IDYLL)
    config = replace(config, trace_lanes=1, inflight_per_cu=4)
    # Every invalidation/ack packet dropped: the shootdown can never be
    # acknowledged, so the watchdog's hard deadline fires.
    return config.with_faults(
        drop_rate=1.0,
        ack_timeout=300,
        ack_timeout_max=600,
        max_retries=2,
        watchdog_interval=500,
        watchdog_stall_window=20_000,
        ack_deadline=4_000,
    )


class TestAbortedCheckpointedRun:
    def test_checkpoints_resume_to_the_same_abort(self, tmp_path):
        plain_system = MultiGPUSystem(_lossy_config(), seed=7)
        plain = plain_system.run(_migration_workload())
        assert plain.aborted and plain.abort_reason and plain_system.abort_dump
        # Partial statistics: the accesses retired before the abort.
        assert 0 < plain.accesses < _migration_workload().total_accesses()

        system = MultiGPUSystem(_lossy_config(), seed=7)
        result = system.run(
            _migration_workload(), checkpoint_every=1000, checkpoint_dir=tmp_path
        )
        want = dataclasses.asdict(plain)
        assert dataclasses.asdict(result) == want
        assert system.abort_dump == plain_system.abort_dump
        assert not (tmp_path / "emergency.ckpt").exists()
        paths = sorted(tmp_path.glob("ckpt-*.ckpt"))
        assert [p.name for p in tmp_path.iterdir() if p not in paths] == []
        assert len(paths) >= 3, "the run aborts only after several checkpoints"
        for path in paths:
            resumed_system, resumed = snap.resume_run(path)
            assert dataclasses.asdict(resumed) == want, path.name
            assert resumed_system.abort_dump == plain_system.abort_dump


class TestFastpathFaultComposition:
    """Satellite: the batch tier must stand down under fault injection.

    Fault injection perturbs per-access state the replay predicate does
    not model, so a faulted system never constructs the fast path at
    all — every lane stays on the exact event tier — and faulted
    results are identical with ``fastpath_enabled`` on or off.
    """

    def _faulted_config(self, fastpath: bool):
        config = baseline_config(2).with_fastpath(fastpath)
        return config.with_faults(
            drop_rate=0.05, delay_rate=0.1, duplicate_rate=0.05,
            audit_interval=7000,
        )

    def test_faulted_system_builds_no_fastpath(self):
        system = MultiGPUSystem(self._faulted_config(fastpath=True), seed=11)
        assert system.injector is not None
        assert system.fastpath is None, (
            "fault injection must force the pure event path"
        )

    @pytest.mark.parametrize("seed", [3, 11, 19])
    def test_faulted_stats_match_no_fastpath(self, seed):
        import dataclasses
        import random

        rng = random.Random(seed)
        traces = []
        for g in range(2):
            gpu_lanes = []
            for _lane in range(2):
                local = [g * 1000 + p for p in range(40)]
                shared = list(range(90000, 90020))
                trace = []
                for _ in range(250):
                    vpn = (
                        rng.choice(shared)
                        if rng.random() < 0.1
                        else rng.choice(local)
                    )
                    trace.append(
                        (rng.choice((40, 120, 400)), vpn, rng.random() < 0.2)
                    )
                gpu_lanes.append(trace)
            traces.append(gpu_lanes)

        def build():
            return Workload(name=f"fp-faults-{seed}", traces=traces)

        with_fp = MultiGPUSystem(
            self._faulted_config(fastpath=True), seed=seed
        ).run(build())
        without_fp = MultiGPUSystem(
            self._faulted_config(fastpath=False), seed=seed
        ).run(build())
        assert dataclasses.asdict(with_fp) == dataclasses.asdict(without_fp)

    def test_unfaulted_run_still_uses_fastpath(self):
        """Guard the flip side: without faults the batch tier engages
        (no silent always-slow regression from the checkpoint work)."""
        import random as _random

        rng = _random.Random(5)
        trace = [
            (rng.choice((40, 120)), 1000 + rng.randrange(30), False)
            for _ in range(300)
        ]
        wl = Workload(name="fp-on", traces=[[trace]])
        system = MultiGPUSystem(baseline_config(1), seed=5)
        system.run(wl)
        assert system.fastpath is not None
        assert system.fastpath.replayed > 0, "batch tier never engaged"
