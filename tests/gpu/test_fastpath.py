"""Observational-equivalence tests for the batched fast-path replay tier.

The two-tier replay core's contract is that enabling the fast path
changes *nothing* observable: every collected statistic is identical
field-for-field, and any run with tracing enabled degrades to the pure
event path so golden traces stay byte-identical by construction.  These
tests are the enforcement arm of DESIGN.md §8's equivalence argument.
"""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest

from repro.bench import _tlb_resident_workload
from repro.config import InvalidationScheme, baseline_config
from repro.gpu.system import MultiGPUSystem
from repro.sim.trace import TraceRecorder
from repro.workloads.base import Workload

BASE_VPN = 1 << 20


def random_workload(seed: int, num_gpus: int, lanes: int = 2, accesses: int = 60):
    """Mixed read/write trace over pages shared across GPUs (so remote
    accesses, migrations and shootdowns all fire) plus per-lane private
    pages (so the fast path has something to replay)."""
    rng = random.Random(seed)
    shared_pages = 24
    private_pages = 8
    traces = []
    for g in range(num_gpus):
        gpu_traces = []
        for lane in range(lanes):
            private_base = BASE_VPN + shared_pages + (g * lanes + lane) * private_pages
            records = []
            for _ in range(accesses):
                if rng.random() < 0.5:
                    vpn = BASE_VPN + rng.randrange(shared_pages)
                else:
                    vpn = private_base + rng.randrange(private_pages)
                records.append((rng.randrange(8), vpn, rng.random() < 0.3))
            gpu_traces.append(records)
        traces.append(gpu_traces)
    return Workload(name=f"rand{seed}", traces=traces)


def run_stats(config, workload, seed: int = 7, tracer=None):
    system = MultiGPUSystem(config, seed=seed, tracer=tracer)
    result = system.run(workload)
    return system, asdict(result)


def small_config(num_gpus: int, scheme=InvalidationScheme.IDYLL):
    return replace(
        baseline_config(num_gpus=num_gpus).with_scheme(scheme),
        trace_lanes=2,
        inflight_per_cu=4,
    )


class TestRandomizedEquivalence:
    """Property test: fast path on vs off must agree field-for-field on
    every collected statistic, across seeds, GPU counts and schemes."""

    @pytest.mark.parametrize("num_gpus", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(20))
    def test_stats_identical(self, seed, num_gpus):
        scheme = (
            InvalidationScheme.IDYLL if seed % 2 else InvalidationScheme.BROADCAST
        )
        config = small_config(num_gpus, scheme)
        workload = random_workload(seed, num_gpus)
        _, fast = run_stats(config, workload)
        _, slow = run_stats(config.with_fastpath(False), workload)
        diff = {k: (fast[k], slow[k]) for k in fast if fast[k] != slow[k]}
        assert not diff, f"fastpath changed observable stats: {diff}"

    def test_batch_limit_chunking_is_equivalent(self):
        """A tiny batch limit forces the chunked replay loop through many
        rounds; results must not depend on the chunk size."""
        config = small_config(2)
        workload = random_workload(99, 2, accesses=120)
        _, a = run_stats(replace(config, fastpath_batch_limit=4), workload)
        _, b = run_stats(config.with_fastpath(False), workload)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        assert not diff, diff


class TestTracingDegradation:
    """Tracing must auto-degrade to the pure event path and stay
    byte-identical to an explicit --no-fastpath traced run."""

    def test_fastpath_not_built_when_tracing(self):
        config = small_config(2)
        system = MultiGPUSystem(config, seed=7, tracer=TraceRecorder())
        assert system.fastpath is None

    def test_traced_runs_byte_identical(self):
        config = small_config(2)
        workload = random_workload(5, 2)

        def traced_lines(cfg):
            tracer = TraceRecorder()
            MultiGPUSystem(cfg, seed=7, tracer=tracer).run(workload)
            return list(tracer.lines())

        assert traced_lines(config) == traced_lines(config.with_fastpath(False))


class TestEngagement:
    """On a TLB-resident trace the batch tier must actually engage —
    otherwise the equivalence suite is vacuously testing the event path
    against itself."""

    @staticmethod
    def tlb_resident_workload(num_gpus=2, lanes=2, accesses=2000, pages=8):
        traces = []
        for g in range(num_gpus):
            gpu_traces = []
            for lane in range(lanes):
                base = BASE_VPN + (g * lanes + lane) * pages
                gpu_traces.append(
                    [(1, base + (i % pages), (i % 5) == 2) for i in range(accesses)]
                )
            traces.append(gpu_traces)
        return Workload(name="tlbres", traces=traces)

    def test_replays_most_accesses_and_stats_match(self):
        config = small_config(2)
        workload = self.tlb_resident_workload()
        system, fast = run_stats(config, workload)
        assert system.fastpath is not None
        assert system.fastpath.parks > 0
        # Nearly everything after the first-touch faults is replayable.
        assert system.fastpath.replayed > 0.8 * fast["accesses"]
        _, slow = run_stats(config.with_fastpath(False), workload)
        diff = {k: (fast[k], slow[k]) for k in fast if fast[k] != slow[k]}
        assert not diff, diff

    def test_merged_pass_replays_many_accesses_per_pass(self):
        """Machine-independent speed guard: one kernel pass replays every
        parked lane up to the next calendar event.  Per-lane bites cut at
        the runner-up lane's next issue gave about one access per call."""
        config = baseline_config(4).with_scheme(InvalidationScheme.IDYLL)
        system = MultiGPUSystem(config, seed=7)
        system.run(_tlb_resident_workload(4, 4, 1500, 16))
        fastpath = system.fastpath
        assert fastpath.replayed / fastpath.passes >= 100

    def test_no_fastpath_flag_disables_construction(self):
        config = small_config(2).with_fastpath(False)
        system = MultiGPUSystem(config, seed=7)
        assert system.fastpath is None


class TestReplayKernelCorners:
    """Degenerate shapes the replay kernel and per-GPU parking must
    survive bit-for-bit: pathological batch limits, empty and
    single-access lanes, wide topologies, and every combination of the
    knobs the replay predicate and window recurrence read."""

    def _assert_equivalent(self, config, workload):
        _, fast = run_stats(config, workload)
        _, slow = run_stats(config.with_fastpath(False), workload)
        diff = {k: (fast[k], slow[k]) for k in fast if fast[k] != slow[k]}
        assert not diff, f"fastpath changed observable stats: {diff}"

    # 59 = run length - 1: even a lane replayed alone needs a second
    # pass.  The 1-GPU seed-19 input diverges at limits 1 and 3 when a
    # pass cut by the limit is treated as finished (the next window
    # release consumed, the bound recomputed); the seed-17 input does
    # not.
    @pytest.mark.parametrize("batch_limit", [1, 2, 3, 59])
    def test_degenerate_batch_limits(self, batch_limit):
        config = replace(small_config(2), fastpath_batch_limit=batch_limit)
        self._assert_equivalent(config, random_workload(17, 2))
        if batch_limit in (1, 3):
            config = replace(small_config(1), fastpath_batch_limit=batch_limit)
            self._assert_equivalent(config, random_workload(19, 1, accesses=120))

    @pytest.mark.parametrize("idyll", [False, True])
    @pytest.mark.parametrize("tight_window", [False, True])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_kernel_knob_matrix(self, idyll, tight_window, seed):
        """Equivalence must hold with and without an IRMB in the escape
        predicate (IDYLL vs broadcast) and with a one-slot window, where
        every replayed access waits on the ring head."""
        scheme = InvalidationScheme.IDYLL if idyll else InvalidationScheme.BROADCAST
        config = replace(small_config(2, scheme),
                         inflight_per_cu=1 if tight_window else 4)
        self._assert_equivalent(config, random_workload(seed, 2))

    def test_empty_and_single_access_lanes(self):
        """Lanes with zero or one access must neither wedge the parking
        protocol nor perturb the other lanes' replay."""
        busy = [(1, BASE_VPN + 100 + (i % 4), i % 5 == 0) for i in range(50)]
        traces = [
            [busy, []],                       # one busy lane, one empty
            [[(0, BASE_VPN + 200, False)], [(3, BASE_VPN + 1, True)]],
        ]
        workload = Workload(name="degenerate", traces=traces)
        self._assert_equivalent(small_config(2), workload)

    def test_all_lanes_empty(self):
        workload = Workload(name="empty", traces=[[[], []], [[], []]])
        self._assert_equivalent(small_config(2), workload)

    def test_eight_gpu_topology(self):
        config = small_config(8)
        self._assert_equivalent(config, random_workload(3, 8))
        config = small_config(8, InvalidationScheme.BROADCAST)
        self._assert_equivalent(config, random_workload(4, 8))
        # One-slot windows: lanes park inside the batcher call while it
        # consumes a parked lane's window release, and a later pass's
        # unpark must still end the call.
        config = replace(config, inflight_per_cu=1)
        self._assert_equivalent(config, random_workload(0, 8))


class TestCheckpointMidBatch:
    """Checkpoints taken while lanes are parked must round-trip: the
    parked replay state (index, arrival, release ring) is part of the
    pickled system, and resuming must reproduce the uninterrupted
    result."""

    def _workload(self):
        return TestEngagement.tlb_resident_workload(
            num_gpus=2, lanes=2, accesses=1500, pages=8
        )

    def _checkpoints(self, tmp_path):
        """Checkpoint a parking run every 3,000 cycles; returns the
        system, its result and each checkpoint's path with its loaded
        ``(system, workload)``."""
        import glob

        from repro.sim import snapshot as snap

        system = MultiGPUSystem(small_config(2), seed=7)
        result = system.run(
            self._workload(), checkpoint_every=3000, checkpoint_dir=tmp_path
        )
        paths = sorted(glob.glob(str(tmp_path / "ckpt-*.ckpt")))
        assert paths, "no checkpoints written"
        return system, result, [(p, snap.load_checkpoint(p)) for p in paths]

    def test_checkpoint_while_parked_resumes_identically(self, tmp_path):
        from dataclasses import asdict
        from repro.sim import snapshot as snap

        base = MultiGPUSystem(small_config(2), seed=7).run(self._workload())
        system, checkpointed, loaded = self._checkpoints(tmp_path)
        assert system.fastpath is not None and system.fastpath.parks > 0
        assert asdict(checkpointed) == asdict(base)
        # At least one checkpoint must actually catch a lane mid-batch;
        # otherwise this test is vacuous.
        parked = [path for path, (sys_, _wl) in loaded if sys_.fastpath._parked]
        assert parked, "no checkpoint caught a parked lane"
        for path in parked[:2] + [loaded[-1][0]]:
            _sys, resumed = snap.resume_run(path)
            assert asdict(resumed) == asdict(base), f"resume of {path} diverged"

    def test_parked_ring_pickles_to_plain_ints(self, tmp_path):
        """A checkpoint pickles parked replay state, so it must be plain
        Python ints (any other integer type would silently change the
        checkpoint bytes)."""
        _system, _result, loaded = self._checkpoints(tmp_path)
        seen_parked = False
        for _path, (system, _workload) in loaded:
            for rec in system.fastpath._parked.values():
                seen_parked = True
                assert type(rec.index) is int
                assert type(rec.arrival) is int
                assert type(rec.backed) is int
                assert all(type(r) is int for r in rec.ring)
        assert seen_parked, "no checkpoint caught a parked lane"

    def test_parked_windows_survive_a_load(self, tmp_path):
        """The batcher consumes a parked lane's window release as benign
        by finding the window in ``_parked_windows``; after a load that
        set must still hold every parked lane's window, and nothing
        else."""
        _system, _result, loaded = self._checkpoints(tmp_path)
        seen_parked = False
        for _path, (system, _workload) in loaded:
            fastpath = system.fastpath
            windows = {lane._window for lane in fastpath._parked}
            seen_parked = seen_parked or bool(windows)
            assert fastpath._parked_windows == windows
        assert seen_parked, "no checkpoint caught a parked lane"
