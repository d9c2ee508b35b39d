"""Integration tests for chaos campaigns: determinism, checkpointed
mid-episode resume, zero-episode pass-through, and recovery metrics."""

import json
from dataclasses import asdict, replace

import pytest

from repro.config import ConfigError, baseline_config
from repro.experiments.campaign import (
    campaign_config,
    campaign_report,
    run_campaign,
)
from repro.faults.schedule import ScheduledFaultInjector
from repro.faults.tracegen import generate_trace

# Dense trace whose horizon comfortably outlives the ~46k-cycle
# workload, so episodes are open both while the lanes run and in the
# post-retirement drain phase.
TRACE = generate_trace(
    2, 80_000, seed=3,
    link_mttf=8_000, gpu_mttf=12_000,
    mean_outage=1_200, mean_degraded=1_500, mean_storm=1_200,
)

CONFIG = campaign_config(baseline_config(num_gpus=2), TRACE)
RUN = dict(lanes=2, accesses_per_lane=200, seed=7)


def _report_bytes(system, result) -> bytes:
    return json.dumps(
        campaign_report(system, result), sort_keys=True
    ).encode()


class TestDeterminism:
    def test_same_inputs_same_report_bytes(self):
        sys_a, res_a = run_campaign("PR", CONFIG, **RUN)
        sys_b, res_b = run_campaign("PR", CONFIG, **RUN)
        assert asdict(res_a) == asdict(res_b)
        assert _report_bytes(sys_a, res_a) == _report_bytes(sys_b, res_b)

    def test_fastpath_equivalent_to_event_path(self):
        """With zero base rates the scheduled injector keeps the batched
        replay fast path armed (fastpath_safe); its results must match
        the pure event path field-for-field."""
        sys_fp, res_fp = run_campaign("PR", CONFIG, **RUN)
        sys_ev, res_ev = run_campaign(
            "PR", replace(CONFIG, fastpath_enabled=False), **RUN
        )
        assert sys_fp.fastpath is not None, "fast path should stay armed"
        assert sys_ev.fastpath is None
        assert asdict(res_fp) == asdict(res_ev)


class TestCheckpointResume:
    def test_mid_episode_resume_is_byte_equal(self, tmp_path):
        base_sys, base_res = run_campaign("PR", CONFIG, **RUN)
        want = _report_bytes(base_sys, base_res)

        ck_dir = tmp_path / "ck"
        ck_sys, ck_res = run_campaign(
            "PR", CONFIG, **RUN,
            checkpoint_every=2_000, checkpoint_dir=str(ck_dir),
        )
        assert _report_bytes(ck_sys, ck_res) == want, (
            "periodic checkpointing must not perturb the run"
        )

        ckpts = sorted(ck_dir.glob("ckpt-*.ckpt"))
        assert ckpts, "campaign wrote no checkpoints"
        timeline = ck_sys.timeline
        mid_episode = [
            p for p in ckpts
            if timeline.active_at(int(p.stem.split("-")[1]))
        ]
        assert mid_episode, "no checkpoint landed inside an episode"

        for path in (mid_episode[0], mid_episode[-1], ckpts[-1]):
            rs_sys, rs_res = run_campaign(
                "PR", CONFIG, **RUN, resume_from=str(path)
            )
            assert _report_bytes(rs_sys, rs_res) == want, (
                f"resume from {path.name} diverged"
            )


class TestZeroEpisodeTrace:
    def test_equivalent_to_unfaulted_run_with_fastpath(self):
        quiet = generate_trace(2, 80_000, seed=3,
                               link_mttf=10**9, gpu_mttf=10**9)
        assert not quiet.episodes
        cfg_chaos = campaign_config(baseline_config(num_gpus=2), quiet)
        cfg_plain = replace(cfg_chaos, chaos_trace=None)
        sys_a, res_a = run_campaign("PR", cfg_chaos, **RUN)
        sys_b, res_b = run_campaign("PR", cfg_plain, **RUN)
        assert sys_a.injector is None and sys_a.chaos is None
        assert sys_a.fastpath is not None, "fast path must be retained"
        assert asdict(res_a) == asdict(res_b)


class TestRecoveryMetrics:
    def test_report_carries_per_episode_recovery(self):
        system, result = run_campaign("PR", CONFIG, **RUN)
        assert isinstance(system.injector, ScheduledFaultInjector)
        report = campaign_report(system, result)
        camp = report["campaign"]
        assert camp["episodes_run"] > 0
        assert camp["episodes_run"] + camp["episodes_skipped"] == (
            camp["episodes_total"]
        )
        assert camp["faults_injected"] > 0
        for ep in camp["episodes"]:
            assert set(ep) >= {
                "eid", "kind", "target", "severity", "recovered",
                "time_to_recover", "deltas", "injected",
                "near_misses", "max_stall", "audit_violations",
            }
            if ep["recovered"]:
                assert ep["time_to_recover"] >= 0
        recovered = [e for e in camp["episodes"] if e["recovered"]]
        assert recovered, "a healthy campaign recovers episodes"
        assert report["links"], "link attribution should name faulted links"
        assert json.dumps(report, sort_keys=True)  # JSON-serialisable

    def test_campaign_config_arms_supervisors(self):
        cfg = campaign_config(baseline_config(num_gpus=2), TRACE)
        assert cfg.faults.watchdog_enabled is True
        assert cfg.faults.audit_on_quiesce is True
        assert cfg.chaos_trace is TRACE

    def test_trace_topology_must_match_config(self):
        with pytest.raises(ConfigError, match="generated for 2"):
            campaign_config(baseline_config(num_gpus=4), TRACE)
