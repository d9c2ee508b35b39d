"""Checkpoint/restore equivalence properties.

The contract under test (DESIGN.md §9): a run that periodically
checkpoints is observationally identical to one that never does, and
resuming *any* checkpoint — in this process or a fresh one — then
running to completion yields a :class:`SimulationResult` that is
field-for-field identical to the uninterrupted run, with byte-identical
event traces when tracing is on.

Workloads here are synthetic, gap-heavy, mostly-local traces: real app
traces keep the UVM driver saturated with fault episodes, so quiescent
instants (the only points a checkpoint can capture) are rare — see the
honest-assessment note in DESIGN.md §9.  The property is about
*restore fidelity*, which these traces exercise hard (14–46 checkpoints
per run across the grid below).
"""

import dataclasses
import glob
import hashlib
import json
import pathlib
import random
import subprocess
import sys

import pytest

from repro.config import SystemConfig
from repro.gpu.system import MultiGPUSystem
from repro.metrics.export import result_to_json_bytes
from repro.sim import snapshot as snap
from repro.uvm.driver import _Invalidation
from repro.workloads.base import Workload

#: every (gpus, seed) pair: 20 seeds x {1, 2, 4} GPUs.
GRID = [(gpus, seed) for gpus in (1, 2, 4) for seed in range(20)]


def synth_workload(num_gpus, seed, lanes=2, accesses=300):
    """Mostly-local pages with a 10% shared-page burst mix and generous
    compute gaps, so the system has quiescent windows to checkpoint in."""
    rng = random.Random(seed)
    traces = []
    for g in range(num_gpus):
        gpu_lanes = []
        for _lane in range(lanes):
            trace = []
            local = [g * 1000 + p for p in range(40)]
            shared = list(range(90000, 90020))
            for _ in range(accesses):
                vpn = rng.choice(shared) if rng.random() < 0.1 else rng.choice(local)
                gap = rng.choice((40, 120, 400, 900))
                trace.append((gap, vpn, rng.random() < 0.2))
            gpu_lanes.append(trace)
        traces.append(gpu_lanes)
    return Workload(name=f"synth{seed}", traces=traces)


def _run_plain(num_gpus, seed, **config_kwargs):
    config = SystemConfig(num_gpus=num_gpus, **config_kwargs)
    return MultiGPUSystem(config, seed=seed).run(synth_workload(num_gpus, seed))


class TestCheckpointEquivalence:
    @pytest.mark.parametrize("num_gpus,seed", GRID)
    def test_resume_matches_uninterrupted(self, tmp_path, num_gpus, seed):
        """Tentpole property: checkpointing changes nothing, and every
        checkpoint resumes to the exact uninterrupted result."""
        base = _run_plain(num_gpus, seed)
        config = SystemConfig(num_gpus=num_gpus)
        system = MultiGPUSystem(config, seed=seed)
        checkpointed = system.run(
            synth_workload(num_gpus, seed),
            checkpoint_every=4000,
            checkpoint_dir=tmp_path,
        )
        want = dataclasses.asdict(base)
        assert dataclasses.asdict(checkpointed) == want, (
            "checkpointed run diverged from plain run"
        )
        paths = sorted(glob.glob(str(tmp_path / "ckpt-*.ckpt")))
        assert paths, "no checkpoints written (workload lost its quiescent gaps?)"
        # Resume up to four evenly spaced checkpoints (first/last always).
        step = max(1, (len(paths) - 1) // 3) if len(paths) > 1 else 1
        sample = sorted({0, len(paths) - 1} | set(range(0, len(paths), step)))
        for i in sample:
            _system, resumed = snap.resume_run(paths[i])
            got = dataclasses.asdict(resumed)
            if got != want:
                diffs = {k: (got[k], want[k]) for k in got if got[k] != want[k]}
                raise AssertionError(f"resume of {paths[i]} diverged: {diffs}")

    def test_resume_without_fastpath(self, tmp_path):
        base = _run_plain(2, 5, fastpath_enabled=False)
        config = SystemConfig(num_gpus=2, fastpath_enabled=False)
        system = MultiGPUSystem(config, seed=5)
        system.run(
            synth_workload(2, 5), checkpoint_every=4000, checkpoint_dir=tmp_path
        )
        paths = sorted(glob.glob(str(tmp_path / "ckpt-*.ckpt")))
        assert paths
        for path in (paths[0], paths[len(paths) // 2], paths[-1]):
            _system, resumed = snap.resume_run(path)
            assert dataclasses.asdict(resumed) == dataclasses.asdict(base)

    def test_checkpoint_chaining(self, tmp_path):
        """A restored run can itself checkpoint, and those second-
        generation checkpoints also resume to the same result."""
        base = _run_plain(2, 7)
        system = MultiGPUSystem(SystemConfig(num_gpus=2), seed=7)
        system.run(
            synth_workload(2, 7), checkpoint_every=5000,
            checkpoint_dir=tmp_path / "gen1",
        )
        gen1 = sorted(glob.glob(str(tmp_path / "gen1" / "ckpt-*.ckpt")))
        assert gen1
        _sys2, resumed = snap.resume_run(
            gen1[0], checkpoint_every=5000, checkpoint_dir=tmp_path / "gen2"
        )
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)
        gen2 = sorted(glob.glob(str(tmp_path / "gen2" / "ckpt-*.ckpt")))
        assert gen2, "restored run wrote no checkpoints of its own"
        for path in (gen2[0], gen2[-1]):
            _sys3, again = snap.resume_run(path)
            assert dataclasses.asdict(again) == dataclasses.asdict(base)


class TestDivergenceRegression:
    """Pinned repro of the ROADMAP checkpoint-restore divergence.

    The root cause was not restore infidelity (a restored system is
    field-for-field identical to the live one frozen at the same
    instant) but a replay-ordering hole in the batched fast path: a
    parked lane could replay past a sibling parked lane's upcoming
    escape, committing accesses against page-ownership state the
    sibling's slow-path re-entry was about to change.  On this workload
    the plain fastpath run silently missed an access-counter migration
    (exec_time happened to agree with the event path; 29 stats fields
    did not), and checkpoint resumes — whose replay bites are cut
    differently by controller calendar entries — converged to a
    different fixed point.  Fixed by the merge discipline in
    ``FastPath.try_batch``: commits advance in globally nondecreasing
    issue order across parked lanes, with escapes still discovered (and
    their resumes sequenced) at pass-start time.
    """

    SHARED_BASE = 1 << 20

    def _workload(self, max_gap=900):
        rng = random.Random(11)
        traces = []
        for _gpu in range(2):
            gpu_lanes = []
            for _lane in range(2):
                gpu_lanes.append(
                    [
                        (rng.randint(40, max_gap),
                         self.SHARED_BASE + rng.randrange(8), False)
                        for _ in range(1500)
                    ]
                )
            traces.append(gpu_lanes)
        return Workload(name="gapheavy", traces=traces)

    def _checkpoint_workload(self):
        """Longer gaps: with every race defence on, the 900-cycle
        workload leaves no quiescent instant to checkpoint at."""
        return self._workload(max_gap=1500)

    def _config(self, **kwargs):
        from repro.config import InvalidationScheme

        return SystemConfig(
            num_gpus=2,
            invalidation_scheme=InvalidationScheme.IDYLL,
            **kwargs,
        )

    def test_fastpath_matches_event_path(self):
        """The latent bug the divergence was a shadow of: on this
        workload the fast path must agree with the pure event path
        field-for-field, not just on exec_time."""
        fast = MultiGPUSystem(self._config(), seed=7).run(self._workload())
        slow = MultiGPUSystem(
            self._config(fastpath_enabled=False), seed=7
        ).run(self._workload())
        want = dataclasses.asdict(slow)
        got = dataclasses.asdict(fast)
        diff = {k: (got[k], want[k]) for k in got if got[k] != want[k]}
        assert not diff, f"fastpath diverged from event path: {diff}"

    def test_every_checkpoint_resumes_exactly(self, tmp_path):
        """The original ROADMAP repro: every checkpoint of the
        gap-heavy shared-page run must resume to the uninterrupted
        result (mid-run checkpoints used to land on exec_time 710006
        instead of 711277)."""
        base = MultiGPUSystem(self._config(), seed=7).run(self._checkpoint_workload())
        system = MultiGPUSystem(self._config(), seed=7)
        checkpointed = system.run(
            self._checkpoint_workload(), checkpoint_every=3000, checkpoint_dir=tmp_path
        )
        want = dataclasses.asdict(base)
        assert dataclasses.asdict(checkpointed) == want
        paths = sorted(glob.glob(str(tmp_path / "ckpt-*.ckpt")))
        assert len(paths) >= 8, "workload lost its quiescent windows"
        for path in paths:
            _system, resumed = snap.resume_run(path)
            got = dataclasses.asdict(resumed)
            if got != want:
                diffs = {k: (got[k], want[k]) for k in got if got[k] != want[k]}
                raise AssertionError(f"resume of {path} diverged: {diffs}")

    def test_parked_lane_resumes_without_fastpath(self, tmp_path):
        """A checkpoint holding parked lanes must resume under
        ``fastpath_enabled=False`` (this used to crash: the restored
        lane called ``repark`` on a missing fast path) and still
        reproduce the uninterrupted result."""
        base = MultiGPUSystem(self._config(), seed=7).run(self._checkpoint_workload())
        system = MultiGPUSystem(self._config(), seed=7)
        system.run(
            self._checkpoint_workload(), checkpoint_every=3000, checkpoint_dir=tmp_path
        )
        paths = sorted(glob.glob(str(tmp_path / "ckpt-*.ckpt")))
        parked_paths = [
            p
            for p in paths
            if any(
                lane["phase"] == "parked"
                for lane in snap.load_checkpoint(p)["lanes"]
            )
        ]
        assert parked_paths, "no checkpoint captured a parked lane"
        path = parked_paths[len(parked_paths) // 2]
        override = dataclasses.replace(
            snap.load_checkpoint(path)["config"], fastpath_enabled=False
        )
        _system, resumed = snap.resume_run(path, override_config=override)
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)


class TestTracedResume:
    def _lines(self, tracer):
        from repro.metrics.trace_export import trace_lines

        return trace_lines(tracer)

    def test_trace_bytes_identical_after_resume(self, tmp_path):
        from repro.sim.trace import TraceRecorder

        workload = synth_workload(2, 13)
        config = SystemConfig(num_gpus=2)
        base_tracer = TraceRecorder()
        base = MultiGPUSystem(config, seed=13, tracer=base_tracer).run(workload)

        ckpt_tracer = TraceRecorder()
        system = MultiGPUSystem(config, seed=13, tracer=ckpt_tracer)
        system.run(
            synth_workload(2, 13), checkpoint_every=6000, checkpoint_dir=tmp_path
        )
        assert self._lines(ckpt_tracer) == self._lines(base_tracer), (
            "checkpointing perturbed the event trace"
        )
        paths = sorted(glob.glob(str(tmp_path / "ckpt-*.ckpt")))
        assert paths
        _system, resumed = snap.resume_run(paths[len(paths) // 2])
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)
        assert self._lines(_system.tracer) == self._lines(base_tracer), (
            "resumed run's trace is not byte-identical"
        )


class TestFreshProcessResume:
    def test_restore_in_subprocess(self, tmp_path):
        """The acceptance criterion's fresh-process restore: a separate
        interpreter loads the checkpoint and must reproduce the stats."""
        base = _run_plain(2, 17)
        system = MultiGPUSystem(SystemConfig(num_gpus=2), seed=17)
        system.run(
            synth_workload(2, 17), checkpoint_every=6000, checkpoint_dir=tmp_path
        )
        paths = sorted(glob.glob(str(tmp_path / "ckpt-*.ckpt")))
        assert paths
        script = (
            "import dataclasses, json, sys\n"
            "from repro.sim.snapshot import resume_run\n"
            "_system, result = resume_run(sys.argv[1])\n"
            "print(json.dumps(dataclasses.asdict(result), sort_keys=True))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, paths[len(paths) // 2]],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        want = json.loads(json.dumps(dataclasses.asdict(base), sort_keys=True))
        assert got == want


class TestFaultedCheckpoints:
    def test_faulted_run_resumes_identically(self, tmp_path, monkeypatch):
        """Checkpointing composes with fault injection: the faulted,
        checkpointed run and every resume agree with the faulted
        uninterrupted run.

        An acked invalidation's retry timer stays on the calendar until
        it fires and returns at once; a snapshot drops it.  At least one
        checkpoint must land over such a timer (a snapshot that took it
        for live work would refuse every one of those instants) and
        resume exactly."""
        faults = dict(
            drop_rate=0.05, delay_rate=0.1, duplicate_rate=0.05,
            audit_interval=7000,
        )
        config = SystemConfig(num_gpus=2).with_faults(**faults)
        base = MultiGPUSystem(config, seed=19).run(synth_workload(2, 19))

        real_snapshot = snap.snapshot_system
        over_timer = []

        def spying(system, workload, exact=True):
            timers = [
                entry for entry in system.engine._heap
                if getattr(entry[2], "__func__", None) is _Invalidation._timed_out
            ]
            payload = real_snapshot(system, workload, exact)
            if timers:
                assert all(entry[2].__self__.pending.acked for entry in timers)
                over_timer.append(tmp_path / f"ckpt-{system.engine.now:012d}.ckpt")
            return payload

        monkeypatch.setattr(snap, "snapshot_system", spying)
        system = MultiGPUSystem(config, seed=19)
        checkpointed = system.run(
            synth_workload(2, 19), checkpoint_every=5000, checkpoint_dir=tmp_path
        )
        monkeypatch.undo()
        assert dataclasses.asdict(checkpointed) == dataclasses.asdict(base)
        paths = sorted(glob.glob(str(tmp_path / "ckpt-*.ckpt")))
        assert paths, "faulted run wrote no checkpoints"
        assert over_timer, "no checkpoint was taken over an acked retry timer"
        for path in (paths[0], paths[len(paths) // 2], paths[-1], str(over_timer[0])):
            _system, resumed = snap.resume_run(path)
            assert dataclasses.asdict(resumed) == dataclasses.asdict(base)


class TestUnfiredRestoredEntry:
    """A checkpoint of a restored run taken before every restored gap
    entry has fired.  Restore restarts a lane suspended in its compute
    gap *from* that gap's calendar entry, so until the entry fires the
    restored lane has run no step: its restored ``index`` and that entry
    are all that say where it is."""

    @pytest.mark.parametrize(
        "num_gpus,seed,fastpath", [(2, 5, True), (4, 2, True), (2, 7, False)]
    )
    def test_checkpoint_before_restored_gaps_fire(
        self, tmp_path, monkeypatch, num_gpus, seed, fastpath
    ):
        base = _run_plain(num_gpus, seed, fastpath_enabled=fastpath)
        config = SystemConfig(num_gpus=num_gpus, fastpath_enabled=fastpath)
        MultiGPUSystem(config, seed=seed).run(
            synth_workload(num_gpus, seed), checkpoint_every=4000,
            checkpoint_dir=tmp_path / "gen1",
        )
        gen1 = sorted(glob.glob(str(tmp_path / "gen1" / "ckpt-*.ckpt")))
        assert gen1
        source = snap.load_checkpoint(gen1[len(gen1) // 2])

        # Every 30 cycles is below the smallest compute gap (40); keep
        # only the first second-generation snapshot.
        real_snapshot = snap.snapshot_system
        taken = []

        def first_only(system, workload, exact=True):
            if taken:
                raise snap.NotQuiescent("one snapshot is enough")
            taken.append(system.engine.now)
            return real_snapshot(system, workload, exact)

        monkeypatch.setattr(snap, "snapshot_system", first_only)
        _system, restored = snap.resume_run(
            source, checkpoint_every=30, checkpoint_dir=tmp_path / "gen2"
        )
        monkeypatch.undo()
        assert dataclasses.asdict(restored) == dataclasses.asdict(base)
        gen2 = glob.glob(str(tmp_path / "gen2" / "ckpt-*.ckpt"))
        assert len(gen2) == 1
        last_gap = max(
            time for time, _seq, kind, _idx in source["calendar"] if kind == "lane"
        )
        assert taken[0] < last_gap, "every restored gap entry fired first"
        _system, again = snap.resume_run(gen2[0])
        assert dataclasses.asdict(again) == dataclasses.asdict(base)


class TestCheckpointsFromEarlierCode:
    """Checkpoints that other code wrote.

    The two fixtures were written, with ``checkpoint_every=4000``, by
    the simulator as it stood while its lanes and supervisors were
    generator processes: a checkpoint stores lane phases and calendar
    symbols, never the code that ran them, so a format-3 file must
    resume under any code that keeps the model.  Each must reproduce
    the uninterrupted run's result bytes, pinned here by their sha256.
    A deliberate model change rewrites the fixtures (run the workload
    below with the new code and keep the checkpoint at the same cycle);
    a new checkpoint format turns this into a test that the old files
    fail with ``CheckpointError``."""

    FIXTURES = pathlib.Path(__file__).parent / "fixtures"

    @pytest.mark.parametrize("name,phases,calendar,digest", [
        # synth_workload(2, 0), unfaulted, at cycle 36,000.
        ("synth2_seed0_036000.ckpt",
         ["gap", "parked", "parked", "parked"], ["lane", "release"],
         "6e386e1352c010a2f80d56ceb2371fa9afc850d5f67d4ca78478cd7681d31aa2"),
        # synth_workload(2, 3) with drop_rate=0.05 and delay_rate=0.05,
        # at cycle 115,250.
        ("synth2_seed3_faulted_115250.ckpt",
         ["done", "done", "done", "drain"], ["release", "watchdog"],
         "01fd3a3353b53b241e743ce03b0412f965b0e18fc92693692c5bbd0172d9dd9f"),
    ])
    def test_resumes_to_uninterrupted_result(self, name, phases, calendar, digest):
        path = self.FIXTURES / name
        payload = snap.load_checkpoint(path)
        assert sorted(lane["phase"] for lane in payload["lanes"]) == phases
        assert sorted(kind for _t, _s, kind, _i in payload["calendar"]) == calendar
        _system, result = snap.resume_run(path)
        assert hashlib.sha256(result_to_json_bytes(result)).hexdigest() == digest
