"""Unit tests for the Table-3 application suite."""

import pytest

from repro.workloads.suite import (
    APP_ORDER,
    APPS,
    FIG1_APPS,
    PAGES_PER_LEAF_NODE,
    build_workload,
    dilate,
)


class TestRegistry:
    def test_all_nine_apps_present(self):
        assert sorted(APPS) == sorted(["KM", "PR", "BS", "MM", "MT", "SC", "ST", "C2D", "IM"])
        assert set(APP_ORDER) == set(APPS)

    def test_fig1_subset(self):
        assert FIG1_APPS == ["MT", "MM", "PR", "ST", "SC", "KM"]

    def test_paper_metadata(self):
        assert APPS["MT"].paper_mpki == 185.52
        assert APPS["PR"].suite == "Hetero-Mark"
        assert APPS["ST"].pattern == "adjacent"

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            build_workload("NOPE")


class TestDilation:
    def test_neighbours_share_leaf_node(self):
        assert dilate(0) >> 9 == dilate(PAGES_PER_LEAF_NODE - 1) >> 9

    def test_cluster_boundary_changes_node(self):
        assert dilate(0) >> 9 != dilate(PAGES_PER_LEAF_NODE) >> 9

    def test_dilation_is_injective(self):
        vpns = [dilate(i) for i in range(5000)]
        assert len(set(vpns)) == 5000


class TestBuiltTraces:
    @pytest.mark.parametrize("app", APP_ORDER)
    def test_every_app_builds(self, app):
        w = build_workload(app, num_gpus=2, lanes=2, accesses_per_lane=100)
        assert w.num_gpus == 2
        assert w.total_accesses() == 2 * 2 * 100
        assert w.footprint_pages() > 0

    @pytest.mark.parametrize("app", APP_ORDER)
    def test_tiny_traces_build(self, app):
        """A budget too small to give every sub-pattern an access (KM and
        IM at 10 accesses per lane) still merges what there is."""
        for accesses in (1, 3, 10):
            w = build_workload(app, num_gpus=2, lanes=1, accesses_per_lane=accesses)
            assert w.total_accesses() == 2 * accesses

    def test_deterministic_per_seed(self):
        a = build_workload("PR", num_gpus=2, lanes=2, accesses_per_lane=50, seed=3)
        b = build_workload("PR", num_gpus=2, lanes=2, accesses_per_lane=50, seed=3)
        assert a.traces == b.traces

    def test_different_seed_different_trace(self):
        a = build_workload("PR", num_gpus=2, lanes=2, accesses_per_lane=50, seed=3)
        b = build_workload("PR", num_gpus=2, lanes=2, accesses_per_lane=50, seed=4)
        assert a.traces != b.traces

    def test_scale_grows_footprint(self):
        small = build_workload("PR", num_gpus=2, lanes=2, accesses_per_lane=200, scale=0.5)
        big = build_workload("PR", num_gpus=2, lanes=2, accesses_per_lane=200, scale=2.0)
        assert big.params["footprint_pages"] > small.params["footprint_pages"]

    def test_large_pages_coarsen_vpns(self):
        w4k = build_workload("KM", num_gpus=2, lanes=2, accesses_per_lane=200)
        w2m = build_workload(
            "KM", num_gpus=2, lanes=2, accesses_per_lane=200, page_size=2 * 1024 * 1024
        )
        assert w2m.footprint_pages() < w4k.footprint_pages()

    @pytest.mark.parametrize("gpus", [2, 4, 8])
    def test_scales_to_gpu_counts(self, gpus):
        w = build_workload("ST", num_gpus=gpus, lanes=2, accesses_per_lane=50)
        assert len(w.traces) == gpus


class TestPaperCharacteristics:
    def test_sharing_patterns_match_fig4(self):
        """High-sharing apps (MM, PR, KM) must have most accesses to
        pages shared by all four GPUs; MT concentrates on 2-GPU pages."""
        for app in ("MM", "PR", "KM"):
            w = build_workload(app, num_gpus=4, lanes=4, accesses_per_lane=600)
            dist = w.sharing_distribution()
            assert dist.get(4, 0) > 0.3, f"{app}: {dist}"
        mt = build_workload("MT", num_gpus=4, lanes=4, accesses_per_lane=600)
        dist = mt.sharing_distribution()
        assert dist.get(2, 0) > 0.15, dist

    def test_write_intensity_ordering(self):
        """§7.4: IM and C2D are write-intensive; PR, ST, SC read-heavy."""
        def wf(app):
            return build_workload(app, num_gpus=4, lanes=2, accesses_per_lane=400).write_fraction()

        assert wf("IM") > 0.4
        assert wf("C2D") > 0.4
        assert wf("PR") < 0.3
        assert wf("SC") < 0.3

    def test_mpki_rank_roughly_preserved(self):
        """MT must be the most translation-intensive; BS the least
        (Table 3) — compare by gap (compute intensity) as a fast proxy."""
        assert APPS["MT"].mean_gap == min(a.mean_gap for a in APPS.values())
        assert APPS["BS"].mean_gap == max(a.mean_gap for a in APPS.values())
