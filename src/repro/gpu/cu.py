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

A lane is a callback state machine (DESIGN.md §7.1) with one method
per wait: :meth:`Lane.start`, the end of a compute gap
(``_arrived``), an unpark (``_unparked``), the window grant and issue
loop (``_issue``) and the end-of-trace drain (``_drain``).  Its
position is plain data — ``index``, the next access to issue, and
``_owed``, the drain's grants still to take — and its pending wait is
a calendar entry or a waiter holding one of those methods, so a
pickled system carries every lane mid-step.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Iterable, Optional, Tuple

from ..sim.process import Resource
from ..workloads.base import TraceBuffer, _as_buffer

__all__ = ["Lane"]


class Lane:
    """One trace-driven CU lane of a GPU.

    ``done``, if given, is called from the ready queue once the lane
    has retired its whole trace (the run's :class:`Countdown`)."""

    def __init__(self, gpu, lane_id: int, trace: Iterable[Tuple[int, int, bool]],
                 done: Optional[Callable[[], None]] = None) -> None:
        self.gpu = gpu
        self.lane_id = lane_id
        self.trace: TraceBuffer = _as_buffer(trace)
        self.done = done
        # Replay state shared with the fast path (the window is built by
        # attach_window).
        self._window: Resource = None  # type: ignore[assignment]
        self._releases: deque = deque()
        self._gaps = self.trace.gaps
        self._vpns = self.trace.vpns
        self._writes = self.trace.writes
        self._n = len(self.trace)
        self._capacity = 0
        #: the next trace access to issue.
        self.index = 0
        #: window grants the end-of-trace drain has still to take.
        self._owed = 0
        #: this lane's in-flight slow (full-pipeline) accesses.  Parking
        #: requires zero: a slow access holds a window slot with an
        #: event-driven (unknown) release time that the replay ring
        #: cannot model.
        self._slow = 0

    def attach_window(self) -> None:
        """Build the lane's empty in-flight window (as it starts)."""
        capacity = self.gpu.config.inflight_per_cu
        self._window = Resource(self.gpu.engine, capacity)
        self._capacity = capacity
        self._owed = capacity

    def start(self) -> None:
        """First step of a fresh lane, from the ready queue: park, wait
        out access 0's compute gap, or ask for its window slot."""
        self.attach_window()
        gpu = self.gpu
        if not self._n:
            self._drain()
        elif gpu.fastpath is not None and not gpu.driver_busy:
            gpu.fastpath.park(self, 0)
        else:
            gpu.engine.defer(self._gaps[0], self._arrived)

    def _arrived(self) -> None:
        """Access ``index`` has arrived (its gap is over): take a window
        slot, at once when one is free and the ready queue is empty (the
        tail rule of :meth:`~repro.sim.engine.Engine.tail`), else from
        the ready queue when one is granted."""
        window = self._window
        if self.gpu.engine._ready or not window.try_acquire():
            window.request(self._issue)
            return
        self._issue()

    def _issue(self) -> None:
        """Access ``index`` holds a window slot: issue it, then go on
        issuing until the lane must wait — to park, for a compute gap,
        for a window slot, or for the drain.

        The loop stays inside this one state: a grant that called the
        issue that calls the next grant would recurse once per access
        with zero gaps and a deep window."""
        gpu = self.gpu
        engine = gpu.engine
        window = self._window
        gaps = self._gaps
        vpns = self._vpns
        writes = self._writes
        n = self._n
        fp = gpu.fastpath
        lane_id = self.lane_id
        i = self.index
        while True:
            gpu.instructions += gaps[i] + 1
            vpn = vpns[i]
            is_write = bool(writes[i])
            latency = gpu.try_fast_access(lane_id, vpn, is_write)
            if latency is not None:
                # Fast path: occupancy modelled with one scheduled release.
                if fp is not None:
                    self._releases.append(engine._now + latency)
                engine.schedule(latency, window.release)
            else:
                self._slow += 1
                gpu.access(self, vpn, is_write)
            i += 1
            self.index = i
            if i >= n:
                self._drain()
                return
            if fp is not None and self._slow == 0 and not gpu.driver_busy:
                fp.park(self, i)
                return
            gap = gaps[i]
            if gap:
                # Engine.defer(gap, self._arrived), inlined.
                engine._seq += 1
                heappush(engine._heap, (engine._now + gap, engine._seq, self._arrived, ()))
                return
            if engine._ready or not window.try_acquire():
                window.request(self._issue)
                return

    def _unparked(self, index: int, arrival: int) -> None:
        """Back from the fast path, at or before ``arrival``, the arrival
        time of access ``index``: wait for it and take its slot on the
        event path, or drain past the trace's end."""
        self.index = index
        if index >= self._n:
            self._drain()
            return
        engine = self.gpu.engine
        engine.defer(max(arrival - engine._now, 0), self._arrived)

    def _materialise(self, ring, backed: int) -> None:
        """Leave parking with the release ring ``ring``: back every entry
        past the calendar-backed prefix of ``backed`` that releases in
        the future with a release event (an entry already past issued and
        completed while parked), and keep the ring as the lane's
        releases."""
        engine = self.gpu.engine
        now = engine._now
        window = self._window
        for r in list(ring)[backed:]:
            if r > now:
                window._in_use += 1
                engine.schedule(r - now, window.release)
        releases = self._releases
        releases.clear()
        releases.extend(ring)

    def _drain(self) -> None:
        """End of trace: take back every window slot, so the lane retires
        only once its last access has; then hand on to ``done``."""
        window = self._window
        ready = self.gpu.engine._ready
        while self._owed:
            self._owed -= 1
            if ready or not window.try_acquire():
                window.request(self._drain)
                return
        if self.done is not None:
            ready.append((self.done, ()))
