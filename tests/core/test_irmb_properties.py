"""Property-style randomized tests for IRMB invariants (§6.3).

Seeded ``random.Random`` loops (no external property-testing deps)
checking the structural guarantees the lazy-invalidation design rests
on: bounded occupancy, 9-bit offsets, lossless eviction writeback, and
the probe-hit walk bypass.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, Set

import pytest

from repro.config import IRMBConfig, InvalidationScheme, baseline_config
from repro.core.irmb import IRMB
from repro.gpu.system import MultiGPUSystem
from repro.memory.address import AddressLayout
from repro.sim.trace import TraceRecorder

BASE_VPN = 1 << 20


def _make_irmb(bases=8, offsets=4) -> IRMB:
    return IRMB(IRMBConfig(bases=bases, offsets_per_base=offsets),
                AddressLayout(4096, levels=4))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_occupancy_never_exceeds_capacity(seed):
    rng = random.Random(seed)
    irmb = _make_irmb(bases=8, offsets=4)
    for _ in range(2000):
        vpn = BASE_VPN + rng.randrange(1 << 14)
        irmb.insert(vpn)
        assert len(irmb) <= irmb.config.bases
        for offsets in irmb._entries.values():
            assert 1 <= len(offsets) <= irmb.config.offsets_per_base


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_offsets_stay_within_nine_bit_range(seed):
    rng = random.Random(seed)
    layout = AddressLayout(4096, levels=4)
    irmb = _make_irmb()
    for _ in range(1000):
        vpn = rng.randrange(1 << 36)
        irmb.insert(vpn)
        offset = layout.irmb_offset(vpn)
        assert 0 <= offset < (1 << irmb.config.offset_bits)
        for base, offsets in irmb._entries.items():
            for off in offsets:
                assert 0 <= off < (1 << 9)
                # base/offset recombine to the inserted VPN space.
                assert irmb._vpn(base, off) == (base << 9) | off


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
def test_eviction_always_writes_back_every_pending_offset(seed):
    """Mirror the IRMB with a dict model: whenever insert() evicts, the
    returned VPNs must be exactly the model's buffered VPNs for the
    evicted entry — nothing lost, nothing invented."""
    rng = random.Random(seed)
    irmb = _make_irmb(bases=4, offsets=4)
    model: Dict[int, Set[int]] = {}  # base -> set of vpns buffered
    for _ in range(3000):
        vpn = BASE_VPN + rng.randrange(1 << 13)
        base = irmb.layout.irmb_base(vpn)
        entry = model.get(base)

        expected_evicted: Set[int] = set()
        if entry is not None and vpn not in entry and len(entry) >= 4:
            expected_evicted = set(entry)       # offset-overflow flush
            entry.clear()
        elif entry is None and len(model) >= 4:
            lru_base = next(iter(model))        # model keys kept in LRU order
            expected_evicted = model.pop(lru_base)

        evicted = irmb.insert(vpn)
        assert set(evicted) == expected_evicted
        assert evicted == sorted(evicted), "writeback batch must be ordered"

        # Maintain the model's LRU order the way the IRMB does
        # (any touch moves the base to most-recent).
        if base in model:
            touched = model.pop(base)
            touched.add(vpn)
            model[base] = touched
        else:
            model[base] = {vpn}

        assert sorted(irmb.pending_vpns()) == sorted(
            v for entry in model.values() for v in entry
        )

    # Drain: pop_lru_entry must return each model entry, LRU-first.
    while model:
        lru_base = next(iter(model))
        expected = model.pop(lru_base)
        assert set(irmb.pop_lru_entry()) == expected
    assert irmb.pop_lru_entry() is None
    assert irmb.is_empty


@pytest.mark.parametrize("seed", [21, 22])
def test_probe_hit_always_bypasses_local_walk(seed):
    """A demand miss whose VPN has a buffered invalidation must fault to
    the host directly — no local DEMAND walk may run for it (§6.3)."""
    rng = random.Random(seed)
    tracer = TraceRecorder(capacity=None)
    config = replace(
        baseline_config(2).with_scheme(InvalidationScheme.IDYLL),
        trace_lanes=1,
        inflight_per_cu=4,
        lazy_idle_writeback=False,  # keep the buffered entry put until probed
    )
    system = MultiGPUSystem(config, tracer=tracer)
    gpu = system.gpus[0]

    for i in range(15):
        vpn = BASE_VPN + rng.randrange(1 << 16)
        gpu.lazy.accept_invalidation(vpn)
        assert gpu.lazy.probe(vpn) is True

        words = []
        gpu.translate(0, vpn, False, words.append)
        system.engine.run()
        outcome = {"word": words[0]}

        assert outcome["word"] is not None
        mine = [r for r in tracer.records() if r.vpn == vpn]
        assert any(r.event == "irmb.bypass" for r in mine)
        demand_walks = [
            r for r in mine
            if r.event == "walk.start" and dict(r.fields).get("kind") == "demand"
        ]
        assert demand_walks == []
        # The fresh mapping cancelled the buffered invalidation.
        assert gpu.lazy.probe(vpn) is False
        tracer.clear()
