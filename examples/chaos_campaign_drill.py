#!/usr/bin/env python
"""Chaos-campaign drill (the CI ``chaos-campaign`` job).

Acceptance drill for crash-safe, trace-driven chaos campaigns:

1. generate a seeded failure trace for a 4-GPU topology;
2. run the campaign uninterrupted, in-process → reference report bytes;
3. run the *same* campaign as a checkpointing subprocess and SIGKILL it
   as soon as a checkpoint lands whose cycle lies inside an episode;
4. resume from that *mid-episode* checkpoint and assert the finished
   campaign's report is byte-identical to step 2's;
5. assert the report carries non-zero recovery metrics, and leave it on
   disk as the job's artifact.

Run it directly::

    python examples/chaos_campaign_drill.py [artifact.json]

It exits 0 only if the resume happened from a mid-episode checkpoint
and the bytes match.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.config import baseline_config  # noqa: E402
from repro.experiments.campaign import (  # noqa: E402
    campaign_config,
    campaign_report,
    run_campaign,
)
from repro.faults.tracegen import generate_trace, save_trace  # noqa: E402

GPUS = 4
# Horizon far beyond the ~60k-cycle workload: episodes open both while
# the lanes run and in the long post-retirement drain phase.
TRACE_ARGS = dict(
    num_gpus=GPUS, horizon=600_000, seed=9,
    link_mttf=25_000, gpu_mttf=40_000,
    mean_outage=4_000, mean_degraded=6_000, mean_storm=4_000,
)
RUN = dict(lanes=4, accesses_per_lane=300, seed=7)
CHECKPOINT_EVERY = 2_000


def report_bytes(system, result) -> bytes:
    return json.dumps(
        campaign_report(system, result), indent=2, sort_keys=True
    ).encode()


def main() -> int:
    artifact = Path(sys.argv[1] if len(sys.argv) > 1 else "campaign-report.json")
    spec = generate_trace(**TRACE_ARGS)
    config = campaign_config(baseline_config(GPUS), spec)
    print(f"trace: {len(spec.episodes)} episodes over {spec.horizon} cycles "
          f"(fingerprint {spec.fingerprint})")

    # 1. Reference: the uninterrupted campaign.
    ref_system, ref_result = run_campaign("PR", config, **RUN)
    want = report_bytes(ref_system, ref_result)
    camp = ref_system.chaos.report()
    print(f"reference: exec_time={ref_result.exec_time} "
          f"recovered={camp['episodes_recovered']}/{camp['episodes_run']}")

    def open_at(cycle: int):
        return [ep.eid for ep in spec.episodes if ep.start <= cycle < ep.end]

    def mid_episode(ck_dir: Path):
        """The victim's checkpoints whose cycle lies inside an episode."""
        return [p for p in sorted(ck_dir.glob("ckpt-*.ckpt"))
                if open_at(int(p.stem.split("-")[1]))]

    repo = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory(prefix="chaos-drill-") as tmp:
        tmp = Path(tmp)
        trace_path = save_trace(spec, tmp / "fail.jsonl")
        ck_dir = tmp / "ckpt"

        # 2. Victim: same campaign via the CLI, checkpointing; SIGKILL it
        # once a checkpoint has landed mid-episode.
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "chaos", "run", "PR",
             "--trace", str(trace_path), "--gpus", str(GPUS),
             "--lanes", str(RUN["lanes"]),
             "--accesses", str(RUN["accesses_per_lane"]),
             "--seed", str(RUN["seed"]),
             "--checkpoint-every", str(CHECKPOINT_EVERY),
             "--checkpoint-dir", str(ck_dir)],
            cwd=repo,
            env={**os.environ, "PYTHONPATH": str(repo / "src")},
        )
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            if mid_episode(ck_dir):
                break
            if victim.poll() is not None:
                break
            time.sleep(0.002)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            print(f"saboteur: SIGKILLed campaign pid {victim.pid} "
                  f"(returncode {victim.returncode})")
            assert victim.returncode == -signal.SIGKILL
        else:
            # The victim finished before the poll loop saw a mid-episode
            # checkpoint — the resume checks below still hold, but say so
            # loudly.
            print("saboteur: victim finished before the kill landed "
                  f"(returncode {victim.returncode})")

        ckpts = sorted(ck_dir.glob("ckpt-*.ckpt"))
        assert ckpts, "victim wrote no checkpoints before dying"
        print(f"victim left {len(ckpts)} checkpoint(s), "
              f"last at cycle {int(ckpts[-1].stem.split('-')[1])}")

        # 3. Resume from a mid-episode checkpoint: episodes open at its
        # cycle, so the timeline cursor and open recovery records are
        # part of the pickled system.
        mid = mid_episode(ck_dir)
        assert mid, "no checkpoint landed mid-episode"
        chosen = mid[-1]
        cycle = int(chosen.stem.split("-")[1])
        print(f"resuming {chosen.name} (episodes {open_at(cycle)} open)")
        rs_system, rs_result = run_campaign(
            "PR", config, **RUN, resume_from=str(chosen)
        )
        got = report_bytes(rs_system, rs_result)
        assert got == want, "resumed campaign report diverged from reference"
        print("resumed report is byte-identical to the reference")

    # 4. Recovery metrics must be non-trivial.
    report = campaign_report(rs_system, rs_result)
    camp = report["campaign"]
    assert not report["aborted"], report["abort_reason"]
    assert camp["episodes_recovered"] > 0
    assert camp["time_to_recover_max"] > 0
    assert camp["faults_injected"] > 0
    assert report["links"], "no per-link attribution"
    artifact.write_bytes(want + b"\n")
    print(f"recovery: {camp['episodes_recovered']} episode(s) recovered, "
          f"mean ttr {camp['time_to_recover_mean']:.0f}, "
          f"max ttr {camp['time_to_recover_max']}, "
          f"{camp['faults_injected']} chaos faults; report → {artifact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
