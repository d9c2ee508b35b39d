"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest benchmarks/perf``.

Each workload runs once, traced, at a tiny size through its own
function; sabotaged runs must make ``run.py`` exit non-zero.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads

SPEC = workloads.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: failure counters, whose healthy value is 0.
HEALTHY_ZERO = frozenset({
    "service.queue_rejected", "service.task_retries", "service.worker_respawns",
    "faults.audit_violations", "faults.incoherent_run_frac",
})


@pytest.fixture(scope="module")
def traced():
    """One traced tiny run of every workload, keyed by name."""
    return {
        "apps": workloads.apps(3, 0, True, names=["SC", "PR"], gpus=2, lanes=2,
                               accesses=300, setup_probes=0),
        "tlb_resident": workloads.tlb_resident(3, 0, True, accesses=300,
                                               min_repeats=2, setup_probes=1),
        "figure_grid": workloads.figure_grid(3, 0, True, figure="fig01",
                                             accesses=30, lanes=1, min_warm=2),
        "service_jobs": workloads.service_jobs(3, 0, True, per_round=40, accesses=30),
    }


def exit_code(monkeypatch, tmp_path, name: str, result: dict) -> int:
    """``run.py --workload NAME`` with the workload's result given."""
    monkeypatch.setattr(run, "run_workload", lambda *args: result)
    return run.main(["--workload", name, "--out", str(tmp_path / "report.json")])


# -- the spec ---------------------------------------------------------------


def test_spec_follows_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_map_covers_every_module():
    assert layers.unmapped_modules(workloads.PACKAGE) == []
    for module in layers.MODULE_LAYER:
        assert (workloads.PACKAGE / module).is_file(), f"stale layer entry {module}"
    assert set(f"{layer}.self_s" for layer in layers.LAYERS) <= {
        m["name"] for m in SPEC["per_layer"]
    }


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    assert workloads.percentile(samples, 75) == 29.0
    assert workloads.percentile(samples[:5], 50) == 2.0
    with pytest.raises(ValueError):
        workloads.percentile(samples[:39], 75)
    with pytest.raises(ValueError):
        workloads.percentile(samples, 90)


# -- every workload, tiny -----------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric_with_its_unit(traced, name):
    result = traced[name]
    assert result["ops"] >= 1 and result["ops_failed"] == 0, result["failures"]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(result, SPEC, trace)
        assert line["correct"] is True
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]
        }
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
        json.dumps(line)
    assert all(v > 0 for v in result["metrics"].values())
    assert -0.5 < result["layers"]["trace.overhead_frac"] < 20


def test_every_layer_metric_is_measured_somewhere(traced):
    measured = {k for r in traced.values() for k, v in r["layers"].items() if v}
    missing = {m["name"] for m in SPEC["per_layer"]} - measured - HEALTHY_ZERO
    assert not missing


@pytest.mark.parametrize("name", ["apps", "tlb_resident"])
def test_traced_self_times_sum_to_the_traced_wall(traced, name):
    result = traced[name]
    self_s = sum(v for k, v in result["layers"].items() if k.endswith(".self_s"))
    assert self_s == pytest.approx(result["details"]["traced_wall_s"], rel=0.05)
    assert result["layers"]["trace.attributed_frac"] >= 0.9


def test_fast_path_is_exercised_and_compared(traced):
    tlb = traced["tlb_resident"]["layers"]
    assert tlb["gpu.fastpath.replayed_frac"] > 0.5
    assert tlb["gpu.fastpath.speedup_vs_event"] > 0


# -- sabotage -----------------------------------------------------------------


def test_tampered_fast_path_result_fails_the_run(monkeypatch, tmp_path):
    real = workloads._tlb_run

    def tampered(workload, config, seed, speed=None):
        out = real(workload, config, seed, speed)
        if config.fastpath_enabled:
            out["result"].exec_time += 1
        return out

    monkeypatch.setattr(workloads, "_tlb_run", tampered)
    result = workloads.tlb_resident(3, 0, False, accesses=300, min_repeats=2,
                                    setup_probes=0)
    assert result["ops_failed"] > 0
    assert exit_code(monkeypatch, tmp_path, "tlb_resident", result) == 1


def test_warm_series_differing_from_cold_fails_the_run(monkeypatch, tmp_path):
    real = workloads._run_cli

    def tampered(args, env, timeout=150.0):
        out = real(args, env, timeout)
        if "--json" in args:
            path = Path(args[args.index("--json") + 1])
            if path.name == "warm.json" and path.exists():
                path.write_bytes(path.read_bytes() + b" ")
        return out

    monkeypatch.setattr(workloads, "_run_cli", tampered)
    result = workloads.figure_grid(3, 0, False, figure="fig01", accesses=30,
                                   lanes=1, min_warm=2)
    assert result["ops_failed"] == 2
    assert exit_code(monkeypatch, tmp_path, "figure_grid", result) == 1


def test_job_not_done_fails_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "_job_state", lambda port, job_id: "failed")
    result = workloads.service_jobs(3, 0, False, per_round=4, accesses=30)
    assert result["ops_failed"] >= 8
    assert exit_code(monkeypatch, tmp_path, "service_jobs", result) == 1


def test_run_refuses_a_checkout_without_the_simulator(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "PACKAGE", tmp_path / "src" / "repro")
    assert run.main(["--workload", "apps", "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().out == ""


# -- compare.py ---------------------------------------------------------------


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, "higher", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "within bound"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
