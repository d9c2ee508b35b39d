"""Engine callbacks per simulated access: a machine-independent cost
guard for the event path.

The drain loops are swapped, from the test side only, for copies that
count every drained callback by the class of the object that owns it
(``fn.__self__``).  The counts depend only on the simulated model, so a
tier-1 test can bound them exactly where a wall-clock bench cannot.

Continuations in place of events took the bounds from 15.33 to 10.45
callbacks per access and from 5.0 to 2.16 ``Process``-owned ones; a
transfer's one calendar entry is now owned by its ``Link``.
"""

from __future__ import annotations

from collections import Counter

from repro.config import InvalidationScheme, baseline_config
from repro.experiments.runner import build_app_workload
from repro.gmmu.gmmu import GMMU
from repro.gpu.system import MultiGPUSystem
from repro.interconnect.link import Link
from repro.interconnect.topology import link_names
from repro.sim import engine as engine_mod
from repro.sim.engine import Engine, Process

#: upper bounds per access for KM/IDYLL, 4 GPUs x 4 lanes x 300 accesses,
#: seed 7.  The generator-chain event path drained 27.90 callbacks per
#: access, 16.91 of them owned by a Process; with links and walker pools
#: as FIFO servers it drains 15.08, 3.94 of them Process-owned.  With
#: the race defences always on it drains 15.31 (3.99 Process-owned):
#: 0.11 from ``deliver_mapping``'s install check, the rest from 147 more
#: far faults (1,464), 89 of them refetched installs.  With
#: continuations on the access, walk, fault and shootdown chains it
#: drains 10.40, and only ``Lane.run`` and the run's supervisors are
#: left Process-owned (2.11): the bounds went 15.33 -> 10.45 and
#: 5.0 -> 2.16.
MAX_TOTAL_PER_ACCESS = 10.45
MAX_PROCESS_PER_ACCESS = 2.16


def _owner(fn) -> str:
    owner = getattr(fn, "__self__", None)
    return type(owner).__name__ if owner is not None else getattr(fn, "__qualname__", "?")


def _counting_drains(counts: Counter):
    pop = engine_mod._heappop

    def drain_fast(self):
        ready, heap = self._ready, self._heap
        while ready or heap:
            while ready:
                fn, args = ready.popleft()
                counts[_owner(fn)] += 1
                fn(*args)
            if not heap:
                break
            when, _seq, fn, args = pop(heap)
            self._now = when
            counts[_owner(fn)] += 1
            fn(*args)
        return self._now

    def drain_fast_batched(self):
        ready, heap = self._ready, self._heap
        while True:
            while ready:
                fn, args = ready.popleft()
                counts[_owner(fn)] += 1
                fn(*args)
            batcher = self.batcher
            if batcher is not None and batcher():
                continue
            if not heap:
                break
            when, _seq, fn, args = pop(heap)
            self._now = when
            counts[_owner(fn)] += 1
            fn(*args)
        return self._now

    def run_batch_until(self, until):
        ready, heap = self._ready, self._heap
        while ready or heap:
            while ready:
                fn, args = ready.popleft()
                counts[_owner(fn)] += 1
                fn(*args)
            if not heap or heap[0][0] > until:
                break
            when, _seq, fn, args = pop(heap)
            self._now = when
            counts[_owner(fn)] += 1
            fn(*args)
        if until > self._now:
            self._now = until
        return self._now

    return drain_fast, drain_fast_batched, run_batch_until


def test_callbacks_per_access_within_budget(monkeypatch):
    counts: Counter = Counter()
    fast, batched, until = _counting_drains(counts)
    monkeypatch.setattr(Engine, "_drain_fast", fast)
    monkeypatch.setattr(Engine, "_drain_fast_batched", batched)
    monkeypatch.setattr(Engine, "run_batch_until", until)
    config = baseline_config(4).with_scheme(InvalidationScheme.IDYLL)
    workload = build_app_workload(
        "KM", num_gpus=4, page_size=config.page_size, scale=1.0,
        lanes=4, accesses_per_lane=300, seed=7,
    )
    system = MultiGPUSystem(config, seed=7)
    result = system.run(workload)
    assert not result.aborted
    assert result.accesses == workload.total_accesses()

    accesses = result.accesses
    breakdown = {k: round(v / accesses, 2) for k, v in counts.most_common()}
    assert sum(counts.values()) / accesses <= MAX_TOTAL_PER_ACCESS, breakdown
    assert counts[Process.__name__] / accesses <= MAX_PROCESS_PER_ACCESS, breakdown

    # One calendar entry per transfer and per walk (none is delayed or
    # stalled: no faults are injected), each running its continuation
    # inside that entry.
    transfers = sum(
        system.interconnect.link(name).stats.counter("transfers").value
        for name in link_names(config.num_gpus)
    )
    walks = sum(
        counter.value
        for gpu in system.gpus
        for name, counter in gpu.gmmu.stats.counters.items()
        if name.startswith("submitted.")
    )
    assert counts[Link.__name__] == transfers > 0
    assert counts[GMMU.__name__] == walks > 0
