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

:meth:`Lane.run` is the lane's only loop.  Checkpoint restore re-enters
it mid-trace through its ``entry`` parameter: at the window grant of
access ``i``, parked, or in the end-of-trace drain.
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

    def run(self, i: int = 0, entry: str = "start", arrival: int = 0,
            ring=None, backed: int = 0, remaining: int = 0):
        """Process body: replay the trace from access ``i``, then drain
        the window.

        ``entry`` says where the loop is entered.  Every entry but
        ``"start"`` continues a checkpoint-restored lane, whose window
        :meth:`attach_window` has already rebuilt:

        * ``"start"``  — a fresh lane.
        * ``"window"`` — access ``i`` waits for its window grant.  A lane
          snapshotted in its compute gap is restarted by its gap's
          calendar entry (``Engine.process(..., at=key)``); one
          snapshotted at its window, or an emergency restart, starts at
          once.
        * ``"parked"`` — re-park with the saved replay state ``(arrival,
          ring, backed)``, or materialise the ring when restored without
          a fast path.
        * ``"drain"``  — the end-of-trace drain with ``remaining``
          grants still owed.

        Checkpointing reads ``i`` from the generator's frame, which for a
        restored lane whose entry has not fired yet holds only these
        parameters: the index parameter must keep the name ``i``.

        A window grant waits on a :meth:`Resource.request` event only
        when it must.  With a free slot and an empty ready queue the lane
        takes the slot at once (:meth:`Resource.try_acquire`): the
        granted event's ready hop would be the next callback to run, so
        the lane goes on exactly where it would have (the tail rule of
        :meth:`~repro.sim.engine.Engine.tail`).
        """
        if entry == "start":
            self.attach_window()
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
        acquire = window.try_acquire
        ready = engine._ready
        if entry == "drain":
            for _ in range(remaining):
                if ready or not acquire():
                    yield request()
            return
        if entry == "parked":
            if fp is None:
                # Restored under a config without the batched fast path
                # (tracing, fault injection, fastpath_enabled=False):
                # degrade to the event path by materialising the saved
                # window state exactly as an unpark would — back every
                # future ring entry past the calendar-backed prefix with
                # a fresh release event, drop entries already in the
                # past, and continue from the saved (i, arrival).
                now = engine.now
                entries = list(ring) if ring is not None else []
                for r in entries[backed:]:
                    if r > now:
                        window._in_use += 1
                        schedule(r - now, window.release)
                releases.clear()
                releases.extend(entries)
            else:
                i, arrival = yield fp.repark(self, i, arrival, ring, backed)
            if i < n:
                wait = arrival - engine.now
                if wait > 0:
                    yield wait
                entry = "window"
        if entry == "window":
            if ready or not acquire():
                yield request()
            gpu.instructions += gaps[i] + 1
            vpn = vpns[i]
            is_write = bool(writes[i])
            latency = try_fast(lane_id, vpn, is_write)
            if latency is not None:
                if fp is not None:
                    releases.append(engine._now + latency)
                schedule(latency, window.release)
            else:
                self._slow += 1
                gpu.access(self, vpn, is_write)
            i += 1
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
            if ready or not acquire():
                yield request()
            gpu.instructions += gaps[i] + 1
            vpn = vpns[i]
            is_write = bool(writes[i])
            latency = try_fast(lane_id, vpn, is_write)
            if latency is not None:
                # Fast path: occupancy modelled with one scheduled release.
                if fp is not None:
                    releases.append(engine._now + latency)
                schedule(latency, window.release)
            else:
                self._slow += 1
                gpu.access(self, vpn, is_write)
            i += 1
        # Drain: reacquire every slot so we return only when all
        # outstanding accesses have completed.
        for _ in range(capacity):
            if ready or not acquire():
                yield request()

    def attach_window(self, in_use: int = 0) -> None:
        """Build the lane's in-flight window with ``in_use`` slots held.

        A fresh lane builds an empty one as :meth:`run` starts.
        Checkpoint restore builds it before the lane restarts, with the
        slots held by the in-flight accesses whose release events it
        pushes back onto the calendar."""
        capacity = self.gpu.config.inflight_per_cu
        window = Resource(self.gpu.engine, capacity)
        window._in_use = in_use
        self._window = window
        self._capacity = capacity
