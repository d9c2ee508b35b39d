"""The trace generators are pinned to the draws they have always made.

``patterns`` draws its compute gaps and page picks through lazy
``getrandbits`` iterators, ``mixed`` picks with one ``random()`` and
``bisect_right``, and ``TraceBuffer.from_records`` builds each column in
one call.  The reference below is the generators as they were written
on ``randint``, ``choice`` and ``choices``, with a per-record column
loop: every Table-3 app and both DNN models, at four sizes, must give
byte-equal ``gaps``, ``vpns`` and ``writes`` columns and equal
``params``.
"""

from __future__ import annotations

import random
from array import array
from typing import Iterator, List

import pytest

from repro.experiments.runner import build_app_workload
from repro.workloads import patterns
from repro.workloads.base import TraceBuffer
from repro.workloads.suite import APP_ORDER

LARGE_PAGE = 2 * 1024 * 1024

#: (num_gpus, lanes, accesses per lane, seed, page size, scale)
SIZES = {
    "4x4x1200-seed7": (4, 4, 1200, 7, 4096, 1.0),
    "2x2x300-seed3": (2, 2, 300, 3, 4096, 1.0),
    "4gpu-2mb-pages": (4, 4, 1200, 7, LARGE_PAGE, 4.0),
    "8x4x1200": (8, 4, 1200, 7, 4096, 1.0),
}

WORKLOADS = APP_ORDER + ["VGG16", "ResNet18"]


# -- the reference generators ------------------------------------------------


def _ref_gap(rng, mean_gap):
    if mean_gap <= 0:
        return 0
    return rng.randint(max(0, mean_gap // 2), mean_gap + mean_gap // 2)


def ref_streaming(rng, pages, count, mean_gap, write_ratio, run_length=1,
                  start_fraction=0.0):
    if not pages:
        raise ValueError("streaming needs a non-empty page list")
    out = []
    idx = int(start_fraction * len(pages)) % len(pages)
    produced = 0
    while produced < count:
        vpn = pages[idx % len(pages)]
        for _ in range(min(run_length, count - produced)):
            out.append((_ref_gap(rng, mean_gap), vpn, rng.random() < write_ratio))
            produced += 1
        idx += 1
    return out


def ref_uniform_random(rng, pages, count, mean_gap, write_ratio):
    if not pages:
        raise ValueError("uniform_random needs a non-empty page list")
    return [
        (_ref_gap(rng, mean_gap), rng.choice(pages), rng.random() < write_ratio)
        for _ in range(count)
    ]


def ref_hot_set(rng, pages, count, mean_gap, write_ratio, hot_pages):
    hot = list(pages[: max(1, hot_pages)])
    return ref_uniform_random(rng, hot, count, mean_gap, write_ratio)


def ref_strided(rng, pages, count, mean_gap, write_ratio, stride):
    if not pages:
        raise ValueError("strided needs a non-empty page list")
    out = []
    idx = rng.randrange(len(pages))
    for _ in range(count):
        out.append((_ref_gap(rng, mean_gap), pages[idx], rng.random() < write_ratio))
        idx = (idx + stride) % len(pages)
    return out


def ref_zipf(rng, pages, count, mean_gap, write_ratio, s=0.8, shuffle_seed=0, block=8):
    if not pages:
        raise ValueError("zipf needs a non-empty page list")
    blocks = [list(pages[i: i + block]) for i in range(0, len(pages), block)]
    random.Random(shuffle_seed).shuffle(blocks)
    order = [vpn for blk in blocks for vpn in blk]
    weights = [1.0 / (rank + 1) ** s for rank in range(len(order))]
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    picks = rng.choices(order, cum_weights=cum, k=count)
    return [(_ref_gap(rng, mean_gap), vpn, rng.random() < write_ratio) for vpn in picks]


def ref_phased_hot(rng, pages, count, mean_gap, write_ratio, gpu, num_gpus, phases=3,
                   dominance=0.75):
    if not pages:
        raise ValueError("phased_hot needs a non-empty page list")
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    block = max(1, len(pages) // max(1, num_gpus))
    per_phase = max(1, count // max(1, phases))
    out = []
    for phase in range(phases):
        owned = [
            p
            for i, p in enumerate(pages)
            if (i // block + phase) % num_gpus == gpu % num_gpus
        ] or list(pages)
        n = per_phase if phase < phases - 1 else count - len(out)
        for _ in range(max(0, n)):
            pool = owned if rng.random() < dominance else pages
            vpn = rng.choice(pool)
            out.append((_ref_gap(rng, mean_gap), vpn, rng.random() < write_ratio))
    return out[:count]


def ref_mixed(rng, parts):
    iters: List[Iterator] = [iter(p) for p in parts]
    weights = [len(p) for p in parts]
    out = []
    while iters:
        i = rng.choices(range(len(iters)), weights=weights)[0]
        try:
            out.append(next(iters[i]))
            weights[i] -= 1
            if weights[i] <= 0:
                raise StopIteration
        except StopIteration:
            del iters[i]
            del weights[i]
    return out


def ref_from_records(cls, records):
    gaps = array("q")
    vpns = array("q")
    writes = bytearray()
    for gap, vpn, is_write in records:
        gaps.append(gap)
        vpns.append(vpn)
        writes.append(1 if is_write else 0)
    return cls(gaps, vpns, writes)


REFERENCE = {
    "streaming": ref_streaming,
    "uniform_random": ref_uniform_random,
    "hot_set": ref_hot_set,
    "strided": ref_strided,
    "zipf": ref_zipf,
    "phased_hot": ref_phased_hot,
    "mixed": ref_mixed,
}


def _columns(workload):
    return [
        [(t.gaps.typecode, t.gaps.tobytes(), t.vpns.tobytes(), bytes(t.writes)) for t in gpu]
        for gpu in workload.traces
    ]


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("app", WORKLOADS)
def test_traces_match_the_reference_generators(app, size, monkeypatch):
    num_gpus, lanes, accesses, seed, page_size, scale = SIZES[size]
    spec = dict(
        num_gpus=num_gpus, page_size=page_size, scale=scale, lanes=lanes,
        accesses_per_lane=accesses, seed=seed,
    )
    built = build_app_workload(app, **spec)
    with monkeypatch.context() as patch:
        for name, ref in REFERENCE.items():
            patch.setattr(patterns, name, ref)
        patch.setattr(TraceBuffer, "from_records", classmethod(ref_from_records))
        reference = build_app_workload(app, **spec)
    assert built.total_accesses() == num_gpus * lanes * accesses
    assert _columns(built) == _columns(reference)
    assert built.params == reference.params


class TestDrawPrimitives:
    """Each iterator draws what the ``random.Random`` method it stands
    for draws, and leaves the stream where that method leaves it."""

    SIZES = [1, 2, 3, 7, 8, 9, 37, 64, 100, 1000, (1 << 20) + 1]

    @pytest.mark.parametrize("n", SIZES)
    def test_draws_are_randrange(self, n):
        ours, theirs = random.Random(n), random.Random(n)
        draws = patterns._draws(ours, n)
        assert [next(draws) for _ in range(300)] == [theirs.randrange(n) for _ in range(300)]
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("mean_gap", [-3, 0, 1, 2, 4, 14, 55, 1000])
    def test_gaps_are_randint(self, mean_gap):
        ours, theirs = random.Random(mean_gap), random.Random(mean_gap)
        gaps = patterns._gaps(ours, mean_gap)
        assert [next(gaps) for _ in range(300)] == [_ref_gap(theirs, mean_gap) for _ in range(300)]
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n", SIZES[:-1])
    def test_picks_are_choice(self, n):
        pages = list(range(500, 500 + n))
        ours, theirs = random.Random(n), random.Random(n)
        picks = patterns._picks(ours, pages)
        assert [next(picks) for _ in range(300)] == [theirs.choice(pages) for _ in range(300)]
        assert ours.random() == theirs.random()

    def test_mixed_is_choices(self):
        rng = random.Random(11)
        for trial in range(200):
            sizes = [rng.randrange(1, 40) for _ in range(rng.randrange(1, 5))]
            parts = [[(0, i * 100 + j, False) for j in range(n)] for i, n in enumerate(sizes)]
            ours, theirs = random.Random(trial), random.Random(trial)
            assert patterns.mixed(ours, parts) == ref_mixed(theirs, parts)
            assert ours.random() == theirs.random()
