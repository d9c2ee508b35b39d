"""Differential fuzz harness: the adversarial arm of replay-tier
equivalence.

Three layers of checking:

* a short random campaign must come back clean (the real gate);
* a *sabotaged* kernel must be caught, proving the harness can actually
  see a divergence (a fuzzer that never fails is indistinguishable from
  a fuzzer that never looks);
* the repro-spec plumbing (JSON round-trip, CLI --spec replay) must
  work, because a fuzz failure is only useful if it can be replayed.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.experiments.fuzz import (
    FuzzSpec,
    check_spec,
    fuzz,
    random_specs,
    run_variants,
)
from repro.gpu.fastpath import FastPath


class TestCampaign:
    def test_short_campaign_is_clean(self):
        failures = fuzz(runs=10, master_seed=2026)
        assert failures == []

    def test_specs_are_deterministic(self):
        a = list(random_specs(8, master_seed=5))
        b = list(random_specs(8, master_seed=5))
        assert a == b

    def test_specs_cover_degenerate_corners(self):
        specs = list(random_specs(200, master_seed=1))
        assert any(s.accesses == 0 for s in specs), "empty lanes never drawn"
        assert any(s.accesses == 1 for s in specs), "single access never drawn"
        assert any(s.batch_limit == 1 for s in specs)
        assert any(s.num_gpus == 8 for s in specs)
        assert any(s.inflight_per_cu == 1 for s in specs)


class TestDetection:
    """The harness must detect a broken kernel, not just pass clean ones."""

    def test_sabotaged_kernel_is_caught(self, monkeypatch):
        real = FastPath._replay_pass

        def sabotaged(self, cap):
            lanes = list(self._parked)
            commits, cap = real(self, cap)
            if commits:
                lanes[0].gpu.instructions += 1  # drift one counter
            return commits, cap

        monkeypatch.setattr(FastPath, "_replay_pass", sabotaged)
        # Private-only pages: the lanes park and replay heavily, so the
        # sabotage is guaranteed to fire.
        spec = FuzzSpec(seed=123, num_gpus=2, accesses=200,
                        shared_pages=0, private_pages=4)
        report = check_spec(spec)
        assert report is not None
        assert "repro: repro fuzz --spec" in report
        assert spec.to_json() in report

    def test_sabotage_report_names_the_tier(self, monkeypatch):
        real = FastPath._replay_pass

        def sabotaged(self, cap):
            lanes = list(self._parked)
            commits, cap = real(self, cap)
            if commits:
                lanes[0].gpu._n_local.value += commits  # double-count locals
            return commits, cap

        monkeypatch.setattr(FastPath, "_replay_pass", sabotaged)
        report = check_spec(FuzzSpec(seed=7, num_gpus=2, accesses=200,
                                     shared_pages=0, private_pages=4))
        assert report is not None and "fastpath vs event" in report


class TestSpecPlumbing:
    def test_json_round_trip(self):
        spec = FuzzSpec(seed=99, num_gpus=4, lanes=3, accesses=30,
                        scheme="broadcast", batch_limit=2)
        assert FuzzSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FuzzSpec fields"):
            FuzzSpec.from_json('{"seed": 1, "bogus": 2}')

    def test_variants_include_reference_tier(self):
        results = run_variants(FuzzSpec(seed=4, num_gpus=1, accesses=8))
        assert set(results) == {"event", "fastpath"}

    def test_cli_spec_replay(self, capsys):
        spec = FuzzSpec(seed=11, num_gpus=2, accesses=20)
        rc = cli_main(["fuzz", "--spec", spec.to_json()])
        out = capsys.readouterr().out
        assert rc == 0 and "all replay tiers agree" in out

    def test_cli_campaign(self, capsys):
        rc = cli_main(["fuzz", "--runs", "3", "--seed", "8", "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0 and "fuzz campaign clean: 3 cases" in out
