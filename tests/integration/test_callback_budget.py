"""Engine callbacks and Python calls per simulated access: a
machine-independent cost guard for the event path.

The drain loops are swapped, from the test side only, for copies that
count every drained callback by the class of the object that owns it
(``fn.__self__``).  The counts depend only on the simulated model, so a
tier-1 test can bound them exactly where a wall-clock bench cannot.
The same run also counts Python function calls, from ``sys.setprofile``
``call`` events.  The counting drains make no Python call of their own,
so that count is the run's own; it depends on the interpreter version
as well as on the model (measured on CPython 3.11).

Continuations in place of events took the bounds from 15.33 to 10.45
callbacks per access and from 5.0 to 2.16 ``Process``-owned ones; a
transfer's one calendar entry is now owned by its ``Link``.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict

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
#: 5.0 -> 2.16.  A lane that takes a free window slot at once, with the
#: ready queue empty, skips the grant's event and ready hop: 9.72
#: callbacks per access, 1.43 Process-owned, and the bounds went
#: 10.45 -> 9.72 and 2.16 -> 1.44.
MAX_TOTAL_PER_ACCESS = 9.72
MAX_PROCESS_PER_ACCESS = 1.44

#: upper bound on Python function calls per access, same run.  Looking
#: up fixed statistics, routes and TLB sets once, when the system is
#: built, instead of on every access, and the window grant above took
#: the run from 137.52 to 96.89 calls per access (CPython 3.11): the
#: bound went none -> 98.
MAX_PYTHON_CALLS_PER_ACCESS = 98.0


def _counting_drains(counts: defaultdict):
    """Drain loops that count each callback under its owner's class.

    ``type``, ``getattr`` and a ``defaultdict(int)`` increment are C
    calls, so the counting adds no Python call to the run."""
    pop = engine_mod._heappop

    def drain_fast(self):
        ready, heap = self._ready, self._heap
        while ready or heap:
            while ready:
                fn, args = ready.popleft()
                counts[type(getattr(fn, "__self__", fn))] += 1
                fn(*args)
            if not heap:
                break
            when, _seq, fn, args = pop(heap)
            self._now = when
            counts[type(getattr(fn, "__self__", fn))] += 1
            fn(*args)
        return self._now

    def drain_fast_batched(self):
        ready, heap = self._ready, self._heap
        while True:
            while ready:
                fn, args = ready.popleft()
                counts[type(getattr(fn, "__self__", fn))] += 1
                fn(*args)
            batcher = self.batcher
            if batcher is not None and batcher():
                continue
            if not heap:
                break
            when, _seq, fn, args = pop(heap)
            self._now = when
            counts[type(getattr(fn, "__self__", fn))] += 1
            fn(*args)
        return self._now

    def run_batch_until(self, until):
        ready, heap = self._ready, self._heap
        while ready or heap:
            while ready:
                fn, args = ready.popleft()
                counts[type(getattr(fn, "__self__", fn))] += 1
                fn(*args)
            if not heap or heap[0][0] > until:
                break
            when, _seq, fn, args = pop(heap)
            self._now = when
            counts[type(getattr(fn, "__self__", fn))] += 1
            fn(*args)
        if until > self._now:
            self._now = until
        return self._now

    return drain_fast, drain_fast_batched, run_batch_until


def test_callbacks_per_access_within_budget(monkeypatch):
    by_class: defaultdict = defaultdict(int)
    fast, batched, until = _counting_drains(by_class)
    monkeypatch.setattr(Engine, "_drain_fast", fast)
    monkeypatch.setattr(Engine, "_drain_fast_batched", batched)
    monkeypatch.setattr(Engine, "run_batch_until", until)
    config = baseline_config(4).with_scheme(InvalidationScheme.IDYLL)
    workload = build_app_workload(
        "KM", num_gpus=4, page_size=config.page_size, scale=1.0,
        lanes=4, accesses_per_lane=300, seed=7,
    )
    system = MultiGPUSystem(config, seed=7)
    calls = 0

    def count_calls(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count_calls)
    try:
        result = system.run(workload)
    finally:
        sys.setprofile(None)
    assert not result.aborted
    assert result.accesses == workload.total_accesses()

    counts: Counter = Counter()
    for cls, n in by_class.items():
        counts[cls.__name__] += n
    accesses = result.accesses
    breakdown = {k: round(v / accesses, 2) for k, v in counts.most_common()}
    assert sum(counts.values()) / accesses <= MAX_TOTAL_PER_ACCESS, breakdown
    assert counts[Process.__name__] / accesses <= MAX_PROCESS_PER_ACCESS, breakdown
    assert calls / accesses <= MAX_PYTHON_CALLS_PER_ACCESS, round(calls / accesses, 2)

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
