"""Reusable access-pattern primitives (§4: random / adjacent /
scatter-gather).

Each primitive emits ``(gap, vpn, is_write)`` records for one lane.
They are composed by :mod:`repro.workloads.suite` into the nine
Table-3 applications.  All randomness comes from a caller-supplied
:class:`random.Random`, so traces are deterministic per (seed, app,
gpu, lane).

Trace generation is about four fifths of a run's set-up, so the
per-access draws make no Python call: a gap or a page pick is one
``next`` on an iterator built once per pattern call (:func:`_draws`),
and :func:`mixed` makes its pick from one ``random()`` with
``bisect_right``.  Each draws exactly what the ``random.Random``
method it stands for draws (``randint``, ``choice``, ``choices``, as
CPython 3.10-3.12 implement them), in the same order, so a seed gives
the same traces as ever (``tests/workloads/test_trace_pinning.py``).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, repeat
from typing import Iterator, List, Sequence

from .base import Access

__all__ = [
    "streaming",
    "uniform_random",
    "hot_set",
    "strided",
    "mixed",
]


def _draws(rng: random.Random, n: int) -> Iterator[int]:
    """Uniform draws from ``range(n)``, one per ``next``: the first
    ``rng.getrandbits(k)`` below ``n``, with ``k = n.bit_length()``,
    which is how ``Random._randbelow`` serves ``randrange``, ``randint``
    and ``choice``.  The iterator is lazy, so each ``next`` draws only
    then, in stream order with the pattern's other draws."""
    if n <= 0:
        raise ValueError("cannot draw from an empty range")
    return filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length())))


def _gaps(rng: random.Random, mean_gap: int) -> Iterator[int]:
    """Jittered compute gaps around the app's mean (±50%): each is
    ``rng.randint(mean_gap // 2, mean_gap + mean_gap // 2)``, or 0,
    drawing nothing, when the mean is not positive."""
    if mean_gap <= 0:
        return repeat(0)
    return map((mean_gap // 2).__add__, _draws(rng, mean_gap + 1))


def _picks(rng: random.Random, seq: Sequence[int]) -> Iterator[int]:
    """Uniform picks from ``seq``: each is ``rng.choice(seq)``."""
    return map(seq.__getitem__, _draws(rng, len(seq)))


def streaming(
    rng: random.Random,
    pages: Sequence[int],
    count: int,
    mean_gap: int,
    write_ratio: float,
    run_length: int = 1,
    start_fraction: float = 0.0,
) -> List[Access]:
    """Sequential sweep over ``pages``, ``run_length`` accesses per page
    (element-level reuse within a page), wrapping around.

    High ``run_length`` → strong TLB locality → low MPKI.
    """
    if not pages:
        raise ValueError("streaming needs a non-empty page list")
    n = len(pages)
    start = int(start_fraction * n) % n
    gaps = _gaps(rng, mean_gap)
    rand = rng.random
    return [
        (next(gaps), pages[(start + i // run_length) % n], rand() < write_ratio)
        for i in range(count)
    ]


def uniform_random(
    rng: random.Random,
    pages: Sequence[int],
    count: int,
    mean_gap: int,
    write_ratio: float,
) -> List[Access]:
    """Uniformly random page picks — the worst-case TLB pattern."""
    if not pages:
        raise ValueError("uniform_random needs a non-empty page list")
    gaps = _gaps(rng, mean_gap)
    picks = _picks(rng, pages)
    rand = rng.random
    return [(next(gaps), next(picks), rand() < write_ratio) for _ in range(count)]


def hot_set(
    rng: random.Random,
    pages: Sequence[int],
    count: int,
    mean_gap: int,
    write_ratio: float,
    hot_pages: int,
) -> List[Access]:
    """Random accesses over a small hot subset (e.g. KMeans centroids)."""
    hot = list(pages[: max(1, hot_pages)])
    return uniform_random(rng, hot, count, mean_gap, write_ratio)


def strided(
    rng: random.Random,
    pages: Sequence[int],
    count: int,
    mean_gap: int,
    write_ratio: float,
    stride: int,
) -> List[Access]:
    """Fixed-stride page walk (matrix-transpose column writes): every
    access lands ``stride`` pages away, wrapping — near-zero page reuse."""
    if not pages:
        raise ValueError("strided needs a non-empty page list")
    n = len(pages)
    start = rng.randrange(n)
    gaps = _gaps(rng, mean_gap)
    rand = rng.random
    return [
        (next(gaps), pages[(start + i * stride) % n], rand() < write_ratio)
        for i in range(count)
    ]


def zipf(
    rng: random.Random,
    pages: Sequence[int],
    count: int,
    mean_gap: int,
    write_ratio: float,
    s: float = 0.8,
    shuffle_seed: int = 0,
    block: int = 8,
) -> List[Access]:
    """Zipf-distributed page picks — hot heads shared by every GPU
    (PageRank's power-law vertex degrees).  The rank→page mapping is
    shuffled deterministically by ``shuffle_seed`` at ``block``
    granularity: hot pages scatter across the footprint but stay
    spatially clustered, reproducing the paper's observation that
    migrating pages are nearby in the address space (§6.3)."""
    if not pages:
        raise ValueError("zipf needs a non-empty page list")
    blocks = [list(pages[i: i + block]) for i in range(0, len(pages), block)]
    random.Random(shuffle_seed).shuffle(blocks)
    order = [vpn for blk in blocks for vpn in blk]
    cum = list(accumulate(1.0 / (rank + 1) ** s for rank in range(len(order))))
    picks = rng.choices(order, cum_weights=cum, k=count)
    gaps = _gaps(rng, mean_gap)
    rand = rng.random
    return [(next(gaps), vpn, rand() < write_ratio) for vpn in picks]


def phased_hot(
    rng: random.Random,
    pages: Sequence[int],
    count: int,
    mean_gap: int,
    write_ratio: float,
    gpu: int,
    num_gpus: int,
    phases: int = 3,
    dominance: float = 0.75,
) -> List[Access]:
    """Hot pages with *rotating per-phase affinity*.

    Real applications run in phases during which one GPU dominates the
    accesses to a given hot page; that is what makes counter-based
    migration profitable (the migrated page serves many local accesses
    before affinity moves on) while first-touch strands the page remotely
    and on-touch ping-pongs on the minority traffic — the Fig. 2
    ordering.  Each phase rotates page-block affinity by one GPU; a lane
    picks an *owned* hot page with probability ``dominance``, any hot
    page otherwise.
    """
    if not pages:
        raise ValueError("phased_hot needs a non-empty page list")
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    block = max(1, len(pages) // max(1, num_gpus))
    per_phase = max(1, count // max(1, phases))
    gaps = _gaps(rng, mean_gap)
    any_page = _picks(rng, pages)
    rand = rng.random
    out: List[Access] = []
    for phase in range(phases):
        owned = [
            p
            for i, p in enumerate(pages)
            if (i // block + phase) % num_gpus == gpu % num_gpus
        ] or list(pages)
        owned_page = _picks(rng, owned)
        n = per_phase if phase < phases - 1 else count - len(out)
        for _ in range(max(0, n)):
            vpn = next(owned_page if rand() < dominance else any_page)
            out.append((next(gaps), vpn, rand() < write_ratio))
    return out[:count]


def mixed(rng: random.Random, parts: List[List[Access]]) -> List[Access]:
    """Interleave several sub-traces into one lane trace, preserving each
    sub-trace's internal order (random fair merge).

    Each step picks a sub-trace with probability proportional to the
    accesses it has left: the one ``random()`` draw and ``bisect_right``
    that ``rng.choices(range(len(left)), weights=left)`` makes.  An
    empty sub-trace is never picked (save by that call's rounding
    clamp, which drops it), and the merge ends when only empty ones
    remain."""
    iters: List[Iterator[Access]] = [iter(p) for p in parts]
    left = [len(p) for p in parts]
    rand = rng.random
    out: List[Access] = []
    append = out.append
    while iters:
        cum = list(accumulate(left))
        total = cum[-1] + 0.0
        if not total:
            break
        i = bisect_right(cum, rand() * total, 0, len(cum) - 1)
        if left[i]:
            append(next(iters[i]))
            left[i] -= 1
            if left[i]:
                continue
        del iters[i]
        del left[i]
    return out
