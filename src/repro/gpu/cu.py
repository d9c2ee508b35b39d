"""Compute-unit trace lanes.

A lane stands in for a CU's memory pipeline: it replays a trace of
``(gap, vpn, is_write)`` records, spending ``gap`` cycles of compute
between issues and keeping up to ``inflight_per_cu`` memory requests
outstanding.  The window is what lets translation latency be hidden by
computation — and what makes memory-intensive traces (small gaps)
sensitive to invalidation-induced latency, exactly as §5.2 describes.

When the system's :class:`~repro.gpu.fastpath.FastPath` is active, a
lane *parks* whenever it has no slow access in flight and no driver
episode touches its GPU (``gpu.driver_busy == 0``): it hands its trace
position to the batched replay tier and resumes (possibly thousands of
accesses later) only when an access needs the full event pipeline or
its GPU's driver gauge rises.  See ``fastpath.py`` for the protocol
and the observational-equivalence argument.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Tuple

from ..sim.process import Resource
from ..workloads.base import TraceBuffer, _as_buffer

__all__ = ["Lane"]


class Lane:
    """One trace-driven CU lane of a GPU."""

    def __init__(self, gpu, lane_id: int, trace: Iterable[Tuple[int, int, bool]]) -> None:
        self.gpu = gpu
        self.lane_id = lane_id
        self.trace: TraceBuffer = _as_buffer(trace)
        # Replay state shared with the fast path (populated in run()).
        self._window: Resource = None  # type: ignore[assignment]
        self._releases: deque = deque()
        self._gaps = self.trace.gaps
        self._vpns = self.trace.vpns
        self._writes = self.trace.writes
        self._n = len(self.trace)
        self._capacity = 0
        #: this lane's in-flight slow (full-pipeline) accesses.  Parking
        #: requires zero: a slow access holds a window slot with an
        #: event-driven (unknown) release time that the replay ring
        #: cannot model.
        self._slow = 0

    def run(self):
        """Process body: replay the trace, then drain the window."""
        gpu = self.gpu
        engine = gpu.engine
        capacity = gpu.config.inflight_per_cu
        window = Resource(engine, capacity)
        self._window = window
        self._capacity = capacity
        gaps = self._gaps
        vpns = self._vpns
        writes = self._writes
        n = self._n
        releases = self._releases
        fp = gpu.fastpath
        lane_id = self.lane_id
        try_fast = gpu.try_fast_access
        schedule = engine.schedule
        request = window.request
        i = 0
        while i < n:
            if fp is not None and self._slow == 0 and not gpu.driver_busy:
                i, arrival = yield fp.park(self, i)
                if i >= n:
                    break
                # Resumed (at or before the escaping access's arrival
                # time) to run access ``i`` through the event pipeline;
                # the window grant below lands at its exact issue time.
                wait = arrival - engine.now
                if wait > 0:
                    yield wait
            else:
                gap = gaps[i]
                if gap:
                    yield gap
            yield request()
            gpu.instructions += gaps[i] + 1
            vpn = vpns[i]
            is_write = bool(writes[i])
            latency = try_fast(lane_id, vpn, is_write)
            if latency is not None:
                # Fast path: occupancy modelled with one scheduled release.
                if fp is not None:
                    releases.append(engine.now + latency)
                schedule(latency, window.release)
            else:
                self._slow += 1
                gpu.access(self, vpn, is_write)
            i += 1
        # Drain: reacquire every slot so we return only when all
        # outstanding accesses have completed.
        for _ in range(capacity):
            yield window.request()

    def attach_window(self, in_use: int = 0) -> None:
        """Recreate the in-flight window on checkpoint restore.

        ``run()``'s prelude normally builds the window; a restored lane
        enters through :meth:`resume_run`, which expects it attached with
        ``in_use`` slots held by the in-flight accesses whose release
        events the restore pushed back onto the calendar."""
        capacity = self.gpu.config.inflight_per_cu
        window = Resource(self.gpu.engine, capacity)
        window._in_use = in_use
        self._window = window
        self._capacity = capacity

    def resume_run(self, phase: str, index: int, resume_event=None,
                   remaining: int = 0, arrival: int = 0, ring=None,
                   backed: int = 0):
        """Process body continuing a checkpoint-restored lane mid-trace.

        ``phase`` names where ``run()`` was suspended at snapshot time:

        * ``"gap"``    — a bare-int compute/arrival wait; ``resume_event``
          is fired by a restored calendar entry at the original resume
          time and sequence.
        * ``"window"`` — blocked on a window grant; the restored release
          events reproduce the original FIFO grant.
        * ``"parked"`` — handed to the batched fast path; re-park with
          the saved replay state.
        * ``"drain"``  — end-of-trace drain with ``remaining`` grants
          still owed.

        The post-prelude body MUST mirror run()'s loop exactly (it is a
        deliberate copy, not a shared helper: run() is the hottest loop
        in the simulator and must not pay delegation overhead).
        """
        gpu = self.gpu
        engine = gpu.engine
        window = self._window
        capacity = self._capacity
        gaps = self._gaps
        vpns = self._vpns
        writes = self._writes
        n = self._n
        releases = self._releases
        fp = gpu.fastpath
        lane_id = self.lane_id
        try_fast = gpu.try_fast_access
        schedule = engine.schedule
        request = window.request
        i = index

        if phase == "drain":
            for _ in range(remaining):
                yield request()
            return

        # Prelude: re-enter the suspended iteration of access ``i``.
        if phase == "parked":
            if fp is None:
                # Restored under a config without the batched fast path
                # (tracing, fault injection, fastpath_enabled=False):
                # degrade to the event path by materialising the saved
                # window state exactly as an unpark would — back every
                # future ring entry past the calendar-backed prefix with
                # a fresh release event, drop entries already in the
                # past, and continue from the saved (index, arrival).
                now = engine.now
                entries = list(ring) if ring is not None else []
                release = window.release
                for r in entries[backed:]:
                    if r > now:
                        window._in_use += 1
                        schedule(r - now, release)
                releases.clear()
                releases.extend(entries)
            else:
                i, arrival = yield fp.repark(
                    self, index, arrival, ring, backed
                )
            if i >= n:
                for _ in range(capacity):
                    yield request()
                return
            wait = arrival - engine.now
            if wait > 0:
                yield wait
            yield request()
        elif phase == "gap":
            yield resume_event
            yield request()
        else:  # "window"
            yield request()

        # From here on: an exact mirror of run()'s loop body, entered
        # just after the window grant for access ``i``.
        while True:
            gpu.instructions += gaps[i] + 1
            vpn = vpns[i]
            is_write = bool(writes[i])
            latency = try_fast(lane_id, vpn, is_write)
            if latency is not None:
                if fp is not None:
                    releases.append(engine.now + latency)
                schedule(latency, window.release)
            else:
                self._slow += 1
                gpu.access(self, vpn, is_write)
            i += 1
            if i >= n:
                break
            if fp is not None and self._slow == 0 and not gpu.driver_busy:
                i, arrival = yield fp.park(self, i)
                if i >= n:
                    break
                wait = arrival - engine.now
                if wait > 0:
                    yield wait
            else:
                gap = gaps[i]
                if gap:
                    yield gap
            yield request()
        for _ in range(capacity):
            yield request()
