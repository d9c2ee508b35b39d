"""Unit tests for access-pattern primitives."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import patterns


def rng():
    return random.Random(42)


PAGES = list(range(100, 164))


class TestStreaming:
    def test_count_and_pages(self):
        trace = patterns.streaming(rng(), PAGES, 50, mean_gap=10, write_ratio=0.0)
        assert len(trace) == 50
        assert all(vpn in PAGES for _g, vpn, _w in trace)

    def test_run_length_groups_accesses(self):
        trace = patterns.streaming(rng(), PAGES, 12, 0, 0.0, run_length=4)
        vpns = [vpn for _g, vpn, _w in trace]
        assert vpns[0:4] == [vpns[0]] * 4
        assert vpns[4:8] == [vpns[4]] * 4
        assert vpns[0] != vpns[4]

    def test_sequential_order(self):
        trace = patterns.streaming(rng(), PAGES, 5, 0, 0.0, run_length=1)
        vpns = [vpn for _g, vpn, _w in trace]
        assert vpns == PAGES[:5]

    def test_start_fraction_offsets_stream(self):
        trace = patterns.streaming(rng(), PAGES, 3, 0, 0.0, start_fraction=0.5)
        assert trace[0][1] == PAGES[32]

    def test_wraps_around(self):
        trace = patterns.streaming(rng(), PAGES[:4], 10, 0, 0.0, run_length=1)
        vpns = [vpn for _g, vpn, _w in trace]
        assert vpns[4] == PAGES[0]

    def test_write_ratio_extremes(self):
        all_writes = patterns.streaming(rng(), PAGES, 20, 0, 1.0)
        no_writes = patterns.streaming(rng(), PAGES, 20, 0, 0.0)
        assert all(w for _g, _v, w in all_writes)
        assert not any(w for _g, _v, w in no_writes)

    def test_empty_pages_rejected(self):
        with pytest.raises(ValueError):
            patterns.streaming(rng(), [], 5, 0, 0.0)


class TestUniformRandom:
    def test_covers_page_set(self):
        trace = patterns.uniform_random(rng(), PAGES, 500, 0, 0.0)
        assert {vpn for _g, vpn, _w in trace} > set(PAGES[:10])

    def test_gap_jitter_bounded(self):
        trace = patterns.uniform_random(rng(), PAGES, 200, 10, 0.0)
        assert all(5 <= g <= 15 for g, _v, _w in trace)

    def test_zero_gap(self):
        trace = patterns.uniform_random(rng(), PAGES, 20, 0, 0.0)
        assert all(g == 0 for g, _v, _w in trace)


class TestStrided:
    def test_stride_applied(self):
        trace = patterns.strided(rng(), PAGES, 5, 0, 1.0, stride=7)
        indices = [PAGES.index(vpn) for _g, vpn, _w in trace]
        deltas = [(b - a) % len(PAGES) for a, b in zip(indices, indices[1:])]
        assert all(d == 7 for d in deltas)


class TestZipf:
    def test_head_is_hot(self):
        trace = patterns.zipf(rng(), PAGES, 2000, 0, 0.0, s=1.0, shuffle_seed=1)
        counts = {}
        for _g, vpn, _w in trace:
            counts[vpn] = counts.get(vpn, 0) + 1
        hottest = max(counts.values())
        assert hottest > 2000 / len(PAGES) * 3  # far above uniform

    def test_block_shuffle_keeps_spatial_clusters(self):
        """Hot pages come in contiguous blocks (IRMB merge locality)."""
        trace = patterns.zipf(rng(), PAGES, 4000, 0, 0.0, s=1.2, shuffle_seed=1, block=8)
        counts = {}
        for _g, vpn, _w in trace:
            counts[vpn] = counts.get(vpn, 0) + 1
        hottest = max(counts, key=counts.get)
        block_mates = [p for p in PAGES if p // 8 == hottest // 8 and p != hottest]
        mate_hits = sum(counts.get(p, 0) for p in block_mates)
        assert mate_hits > 0  # neighbours of the hot page are warm too

    def test_deterministic_under_seed(self):
        a = patterns.zipf(random.Random(1), PAGES, 50, 0, 0.0)
        b = patterns.zipf(random.Random(1), PAGES, 50, 0, 0.0)
        assert a == b


class TestPhasedHot:
    def test_owner_dominates_each_phase(self):
        trace = patterns.phased_hot(
            rng(), PAGES, 3000, 0, 0.0, gpu=1, num_gpus=4, phases=1, dominance=1.0
        )
        block = len(PAGES) // 4
        owned = set(PAGES[block: 2 * block])  # phase 0, gpu 1
        assert all(vpn in owned for _g, vpn, _w in trace)

    def test_affinity_rotates_between_phases(self):
        trace = patterns.phased_hot(
            rng(), PAGES, 2000, 0, 0.0, gpu=0, num_gpus=4, phases=2, dominance=1.0
        )
        first = {vpn for _g, vpn, _w in trace[:1000]}
        second = {vpn for _g, vpn, _w in trace[1000:]}
        assert first.isdisjoint(second)

    def test_count_exact(self):
        trace = patterns.phased_hot(rng(), PAGES, 997, 0, 0.0, 0, 4)
        assert len(trace) == 997


class TestMixed:
    def test_preserves_subtrace_order(self):
        a = [(0, 1, False), (0, 2, False), (0, 3, False)]
        b = [(0, 10, True), (0, 20, True)]
        merged = patterns.mixed(rng(), [a, b])
        assert len(merged) == 5
        a_part = [t for t in merged if t[1] < 10]
        b_part = [t for t in merged if t[1] >= 10]
        assert a_part == a
        assert b_part == b

    def test_empty_parts_are_never_picked(self):
        a = [(0, 1, False), (0, 2, False)]
        assert patterns.mixed(rng(), [[], a, []]) == a
        assert patterns.mixed(rng(), [[], []]) == []

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    def test_merged_length_is_sum(self, sizes):
        parts = [[(0, i * 100 + j, False) for j in range(n)] for i, n in enumerate(sizes)]
        merged = patterns.mixed(random.Random(0), parts)
        assert len(merged) == sum(sizes)
