"""Unit tests for the experiment runner and a fast figure-function check."""

import warnings

import pytest

from repro.config import InvalidationScheme, baseline_config
from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner, _env_int, lane_budget


def small_runner():
    return ExperimentRunner(lanes=2, accesses_per_lane=150, seed=7)


class TestEnvInt:
    def test_valid_value_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "9")
        assert _env_int("REPRO_LANES", 4) == 9

    def test_unset_returns_default_silently(self, monkeypatch):
        monkeypatch.delenv("REPRO_LANES", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _env_int("REPRO_LANES", 4) == 4

    def test_malformed_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_LANES", "four")
        with pytest.warns(RuntimeWarning, match="REPRO_LANES"):
            assert _env_int("REPRO_LANES", 4) == 4


class TestRunnerCaching:
    def test_same_run_is_cached(self):
        runner = small_runner()
        config = baseline_config(num_gpus=2)
        a = runner.run("SC", config)
        n = runner.cached_runs()
        b = runner.run("SC", config)
        assert a is b
        assert runner.cached_runs() == n

    def test_different_scheme_not_cached_together(self):
        runner = small_runner()
        a = runner.run("SC", baseline_config(num_gpus=2))
        b = runner.run(
            "SC", baseline_config(num_gpus=2).with_scheme(InvalidationScheme.IDYLL)
        )
        assert a is not b

    def test_workloads_cached(self):
        runner = small_runner()
        assert runner.workload("SC", 2) is runner.workload("SC", 2)

    def test_dnn_workloads_resolve(self):
        runner = small_runner()
        w = runner.workload("VGG16", 2)
        assert w.name == "VGG16"

    def test_unknown_workload_rejected(self):
        import pytest

        with pytest.raises(KeyError):
            small_runner().workload("NOPE")

    def test_lane_budget_tapers_for_big_systems(self):
        runner = ExperimentRunner(lanes=2, accesses_per_lane=1000)
        assert runner._lane_budget(4) == 1000
        assert runner._lane_budget(8) == 1000
        assert runner._lane_budget(16) == 500
        assert runner._lane_budget(32) == 250
        # The module-level function is the same computation.
        assert lane_budget(1000, 16) == 500


class TestFigureFunctions:
    """Structure checks on cheap figure functions (4-GPU sims are covered
    by the benchmarks; here we only verify shapes on tiny traces)."""

    def test_fig04_shapes(self):
        runner = small_runner()
        series = figures.fig04_page_sharing(runner)
        assert set(series) == {f"shared_by_{k}" for k in range(1, 5)}
        for app in figures.APP_ORDER:
            total = sum(series[f"shared_by_{k}"][app] for k in range(1, 5))
            assert abs(total - 1.0) < 1e-9

    def test_table3_reports_both_columns(self):
        runner = small_runner()
        series = figures.table3_mpki(runner)
        assert set(series) == {"measured", "paper"}
        assert series["paper"]["MT"] == 185.52
        assert all(v >= 0 for v in series["measured"].values())


class TestResumeFrom:
    """``simulate(resume_from=...)`` is how the sweep supervisor, the
    fabric and the job service continue preempted runs."""

    RUN = dict(lanes=2, accesses_per_lane=150, seed=7)

    def _checkpoint(self, tmp_path):
        from repro.experiments.runner import simulate

        config = baseline_config(num_gpus=2)
        fresh = simulate("PR", config, **self.RUN)
        simulate("PR", config, **self.RUN, checkpoint_every=5000,
                 checkpoint_dir=str(tmp_path))
        paths = sorted(tmp_path.glob("ckpt-*.ckpt"))
        assert paths
        return config, fresh, paths[len(paths) // 2]

    def test_resumes_a_checkpoint(self, tmp_path):
        from repro.experiments.runner import simulate

        config, fresh, path = self._checkpoint(tmp_path)
        assert simulate("PR", config, **self.RUN, resume_from=str(path)) == fresh

    def test_cli_refuses_flags_a_resume_cannot_apply(self, tmp_path, capsys):
        """``repro run --resume`` plays the pickled run as it was: asked
        to trace, fault, audit or drop the fast path, it exits 2 and
        names the flags instead of ignoring them."""
        from repro.cli import main

        _config, _fresh, path = self._checkpoint(tmp_path)
        trace = tmp_path / "resumed.jsonl"
        refused = [
            (["--trace", str(trace)], "--trace"),
            (["--faults", "light"], "--faults"),
            (["--audit", "500"], "--audit"),
            (["--no-fastpath"], "--no-fastpath"),
        ]
        for extra, flag in refused:
            assert main(["run", "--resume", str(path), *extra]) == 2
            err = capsys.readouterr().err
            assert f"cannot apply {flag}" in err
        assert main([
            "run", "--resume", str(path), "--trace", str(trace), "--audit", "500",
        ]) == 2
        assert "cannot apply --trace, --audit" in capsys.readouterr().err
        assert not trace.exists()
        assert main(["run", "--resume", str(path)]) == 0

    def test_checkpoint_from_other_source_reruns_from_the_start(
        self, tmp_path, capsys
    ):
        """Any source edit changes the code digest a checkpoint is framed
        under, and such a file cannot be loaded.  A resumed run equals an
        uninterrupted one, so the runner runs the spec from the start;
        ``repro run --resume`` still refuses the file (exit 2)."""
        from repro.cli import main
        from repro.experiments.runner import simulate
        from repro.sim.snapshot import _HEADER, CheckpointError, resume_run

        config, fresh, path = self._checkpoint(tmp_path)
        data = path.read_bytes()
        magic, version, code, length = _HEADER.unpack_from(data)
        other = b"0" * 16 if code != b"0" * 16 else b"1" * 16
        path.write_bytes(
            _HEADER.pack(magic, version, other, length) + data[_HEADER.size:]
        )
        with pytest.raises(CheckpointError, match="other package source"):
            resume_run(path)
        assert main(["run", "--resume", str(path)]) == 2
        assert "other package source" in capsys.readouterr().err
        assert simulate("PR", config, **self.RUN, resume_from=str(path)) == fresh
        assert "cannot resume" in capsys.readouterr().err
