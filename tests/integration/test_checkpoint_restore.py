"""Checkpoint/restore equivalence properties.

The contract under test (DESIGN.md §9): a run that periodically
checkpoints is observationally identical to one that never does, and
resuming *any* checkpoint — in this process or a fresh one — then
running to completion yields a :class:`SimulationResult` that is
field-for-field identical to the uninterrupted run, with byte-identical
event traces when tracing is on.

A checkpoint is a pickle of the running system, so it can be taken at
any cycle: the workloads here are the Table-3 app traces the figures
run, whose drivers are never idle — faults, migrations and shootdowns
are in flight at almost every checkpoint.
"""

import dataclasses
import functools
import glob
import pathlib
import random
import subprocess
import sys

import pytest

from repro.config import InvalidationScheme, SystemConfig
from repro.faults.profiles import parse_fault_spec
from repro.gpu.system import MultiGPUSystem
from repro.sim import snapshot as snap
from repro.uvm.driver import _Invalidation
from repro.workloads.base import Workload
from repro.workloads.suite import APPS, build_workload

SCHEMES = list(InvalidationScheme)


def _apps(num_gpus):
    """The Table-3 apps that build on ``num_gpus`` GPUs (MT's transpose
    needs two)."""
    return [app for app in APPS if num_gpus > 1 or app != "MT"]


#: 20 (app, scheme, seed) triples on each of 1, 2 and 4 GPUs.
GRID = [
    (gpus, _apps(gpus)[seed % len(_apps(gpus))], SCHEMES[seed % len(SCHEMES)], seed)
    for gpus in (1, 2, 4)
    for seed in range(20)
]


def app_workload(app, num_gpus, seed, lanes=2, accesses=150):
    return build_workload(
        app, num_gpus=num_gpus, lanes=lanes, accesses_per_lane=accesses, seed=seed
    )


def _config(num_gpus, scheme=InvalidationScheme.IDYLL, **kwargs):
    return SystemConfig(num_gpus=num_gpus, invalidation_scheme=scheme, **kwargs)


def _checkpointed(config, workload, seed, every, directory):
    """Run with checkpoints; returns the result and the checkpoint paths."""
    result = MultiGPUSystem(config, seed=seed).run(
        workload, checkpoint_every=every, checkpoint_dir=directory
    )
    return result, sorted(glob.glob(str(pathlib.Path(directory) / "ckpt-*.ckpt")))


def _assert_resumes(path, want):
    _system, resumed = snap.resume_run(path)
    got = dataclasses.asdict(resumed)
    if got != want:
        diffs = {k: (got[k], want[k]) for k in got if got[k] != want[k]}
        raise AssertionError(f"resume of {path} diverged: {diffs}")


class TestCheckpointEquivalence:
    @pytest.mark.parametrize("num_gpus,app,scheme,seed", GRID)
    def test_resume_matches_uninterrupted(self, tmp_path, num_gpus, app, scheme, seed):
        """Tentpole property: checkpointing changes nothing, and every
        checkpoint resumes to the exact uninterrupted result."""
        config = _config(num_gpus, scheme)
        base = MultiGPUSystem(config, seed=seed).run(app_workload(app, num_gpus, seed))
        # About eight checkpoints, at whatever the run is doing then.
        every = max(1, base.exec_time // 9)
        checkpointed, paths = _checkpointed(
            config, app_workload(app, num_gpus, seed), seed, every, tmp_path
        )
        want = dataclasses.asdict(base)
        assert dataclasses.asdict(checkpointed) == want, (
            "checkpointed run diverged from plain run"
        )
        assert len(paths) >= 8, "a checkpoint is due every `every` cycles"
        # Resume four evenly spaced checkpoints (first/last always).
        step = max(1, (len(paths) - 1) // 3)
        for i in sorted({0, len(paths) - 1} | set(range(0, len(paths), step))):
            _assert_resumes(paths[i], want)

    def test_resume_without_fastpath(self, tmp_path):
        config = _config(2, fastpath_enabled=False)
        base = MultiGPUSystem(config, seed=5).run(app_workload("KM", 2, 5))
        _result, paths = _checkpointed(
            config, app_workload("KM", 2, 5), 5, 4000, tmp_path
        )
        assert paths
        for path in (paths[0], paths[len(paths) // 2], paths[-1]):
            _assert_resumes(path, dataclasses.asdict(base))

    def test_checkpoint_chaining(self, tmp_path):
        """A restored run can itself checkpoint, and those second-
        generation checkpoints also resume to the same result."""
        config = _config(2)
        base = MultiGPUSystem(config, seed=7).run(app_workload("PR", 2, 7))
        _result, gen1 = _checkpointed(
            config, app_workload("PR", 2, 7), 7, 5000, tmp_path / "gen1"
        )
        assert gen1
        _sys2, resumed = snap.resume_run(
            gen1[0], checkpoint_every=5000, checkpoint_dir=tmp_path / "gen2"
        )
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)
        gen2 = sorted(glob.glob(str(tmp_path / "gen2" / "ckpt-*.ckpt")))
        assert gen2, "restored run wrote no checkpoints of its own"
        for path in (gen2[0], gen2[-1]):
            _assert_resumes(path, dataclasses.asdict(base))


class TestEveryCycle:
    """Small runs checkpointed at every cycle, with the fast path on;
    every checkpoint is loaded and resumed in memory as it is taken.

    MM on two GPUs migrates a page and shoots it down.  The TLB-resident
    trace with one-slot windows parks its lanes, and some of its ticks
    run inside the fast path's ``run_batch_until``, while the batcher
    consumes a parked lane's window release."""

    @staticmethod
    def _tlb_resident():
        base = 1 << 20
        return Workload(name="tlbres", traces=[[
            [(1, base + lane, i % 5 == 2) for i in range(20)] for lane in range(2)
        ]])

    @pytest.mark.parametrize("case", ["MM", "tlb-resident-one-slot"])
    def test_every_cycle_resumes_exactly(self, tmp_path, monkeypatch, case):
        if case == "MM":
            config = _config(2, trace_lanes=1)
            build = functools.partial(app_workload, "MM", 2, 3, lanes=1, accesses=16)
        else:
            config = _config(1, trace_lanes=2, inflight_per_cu=1)
            build = self._tlb_resident
        want = dataclasses.asdict(MultiGPUSystem(config, seed=3).run(build()))
        taken = []
        in_batcher = []

        def resume_at_once(payload, _path):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "run_batch_until":
                frame = frame.f_back
            if frame is not None:
                in_batcher.append(payload[0].engine.now)
            system, workload = snap.loads_checkpoint(snap.dumps_checkpoint(payload))
            # The checkpoint holds neither the controller nor a running
            # engine.
            assert system._controller is None and not system.engine._running
            got = dataclasses.asdict(system._finish(workload))
            if got != want:
                diffs = {k: (got[k], want[k]) for k in got if got[k] != want[k]}
                raise AssertionError(
                    f"checkpoint at cycle {payload[0].engine.now} diverged: {diffs}"
                )
            taken.append(payload[0].engine.now)

        monkeypatch.setattr(snap, "save_checkpoint", resume_at_once)
        system = MultiGPUSystem(config, seed=3)
        result = system.run(build(), checkpoint_every=1, checkpoint_dir=tmp_path)
        monkeypatch.undo()
        assert dataclasses.asdict(result) == want
        assert system.fastpath is not None
        assert taken == list(range(1, len(taken) + 1))
        assert len(taken) >= result.exec_time - 1
        if case == "MM":
            assert result.migrations and result.invalidations_sent
        else:
            assert system.fastpath.replayed and in_batcher


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

    def _workload(self):
        rng = random.Random(11)
        traces = []
        for _gpu in range(2):
            gpu_lanes = []
            for _lane in range(2):
                gpu_lanes.append(
                    [
                        (rng.randint(40, 900),
                         self.SHARED_BASE + rng.randrange(8), False)
                        for _ in range(1500)
                    ]
                )
            traces.append(gpu_lanes)
        return Workload(name="gapheavy", traces=traces)

    def _config(self, **kwargs):
        return _config(2, **kwargs)

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
        base = MultiGPUSystem(self._config(), seed=7).run(self._workload())
        checkpointed, paths = _checkpointed(
            self._config(), self._workload(), 7, 60_000, tmp_path
        )
        want = dataclasses.asdict(base)
        assert dataclasses.asdict(checkpointed) == want
        assert len(paths) == base.exec_time // 60_000
        for path in paths:
            _assert_resumes(path, want)


class TestTracedResume:
    def _lines(self, tracer):
        from repro.metrics.trace_export import trace_lines

        return trace_lines(tracer)

    def test_trace_bytes_identical_after_resume(self, tmp_path):
        from repro.sim.trace import TraceRecorder

        config = _config(2)
        base_tracer = TraceRecorder()
        base = MultiGPUSystem(config, seed=13, tracer=base_tracer).run(
            app_workload("SC", 2, 13)
        )

        ckpt_tracer = TraceRecorder()
        system = MultiGPUSystem(config, seed=13, tracer=ckpt_tracer)
        system.run(
            app_workload("SC", 2, 13), checkpoint_every=6000, checkpoint_dir=tmp_path
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
        import json

        config = _config(2)
        base = MultiGPUSystem(config, seed=17).run(app_workload("MT", 2, 17))
        _result, paths = _checkpointed(
            config, app_workload("MT", 2, 17), 17, 6000, tmp_path
        )
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

        A checkpoint must land while an invalidation is unacked, its
        retry timer still live on the calendar — a shootdown whose
        request or ack the injector dropped — and resume exactly.  The
        periodic invariant auditor is armed, so every resume must also
        carry its audit loop on (``audits_run`` is part of the result)."""
        config = _config(2).with_faults(parse_fault_spec("light,audit=7000"))
        base = MultiGPUSystem(config, seed=19).run(app_workload("PR", 2, 19, accesses=200))
        assert base.audits_run > 0

        real_save = snap.save_checkpoint
        over_timer = []

        def spying(payload, path):
            system = payload[0]
            if any(
                getattr(entry[2], "__func__", None) is _Invalidation._timed_out
                and not entry[2].__self__.pending.acked
                for entry in system.engine._heap
            ):
                over_timer.append(path)
            return real_save(payload, path)

        monkeypatch.setattr(snap, "save_checkpoint", spying)
        checkpointed, paths = _checkpointed(
            config, app_workload("PR", 2, 19, accesses=200), 19, 2000, tmp_path
        )
        monkeypatch.undo()
        assert dataclasses.asdict(checkpointed) == dataclasses.asdict(base)
        assert paths, "faulted run wrote no checkpoints"
        assert over_timer, "no checkpoint was taken over an unacked retry timer"
        want = dataclasses.asdict(base)
        sample = {paths[0], paths[len(paths) // 2], paths[-1]}
        for path in sorted(sample | {over_timer[0], over_timer[-1]}):
            _assert_resumes(path, want)


class TestCheckpointsFromEarlierCode:
    """Checkpoints that other code wrote.

    The two fixtures are format-3 checkpoints, written with
    ``checkpoint_every=4000`` by the simulator as it stood while its
    lanes and supervisors were generator processes and a checkpoint
    stored lane phases and calendar symbols.  A checkpoint is now a
    pickle of the running system, which only the source that wrote it
    can load, so an older file must fail with ``CheckpointError``
    before anything is unpickled."""

    FIXTURES = pathlib.Path(__file__).parent / "fixtures"

    def test_is_refused(self):
        for name in (
            # a 2-GPU synthetic run, unfaulted, at cycle 36,000.
            "synth2_seed0_036000.ckpt",
            # the same with drop_rate=0.05 and delay_rate=0.05, at 115,250.
            "synth2_seed3_faulted_115250.ckpt",
        ):
            path = self.FIXTURES / name
            with pytest.raises(snap.CheckpointError, match="format version 3"):
                snap.load_checkpoint(path)
            with pytest.raises(snap.CheckpointError, match="format version 3"):
                snap.resume_run(path)
