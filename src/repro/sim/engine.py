"""Discrete-event simulation kernel.

The engine is a classic event-calendar simulator: a binary heap of
``(time, sequence, callback)`` entries drained in timestamp order, and
a FIFO ready queue for zero-delay work.  Everything that drives
simulated time is a callback state machine, one method per state: a
producer (a link transfer, a page walk, a far fault, a window grant
...) takes the waiting state as a continuation ``(fn, *args)`` and
hands its result straight to it (:meth:`Engine.tail`); a state that
waits out a delay pushes its successor onto the calendar
(:meth:`Engine.defer`).  The trace lanes, the run's end and the
supervisors (the :class:`LivenessWatchdog` here, the auditor, the
chaos and checkpoint controllers) are machines of the same kind.

Timestamps are integers (cycles).  All scheduling is deterministic: events
scheduled for the same cycle fire in scheduling order, which makes every
simulation in this package exactly reproducible.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, List, Optional

from .trace import NULL_TRACER

# Bound once at import: the drain loop and the scheduling fast paths call
# these hundreds of thousands of times per simulated millisecond.
_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "Engine",
    "SimulationError",
    "SimulationAbort",
    "WatchdogError",
    "LivenessWatchdog",
]


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation kernel."""


class SimulationAbort(SimulationError):
    """A simulation was deliberately terminated mid-run (watchdog fired,
    invariant auditor tripped).  Carries a diagnostic ``dump`` of the
    in-flight state at abort time."""

    def __init__(self, message: str, dump: str = "") -> None:
        super().__init__(message)
        self.dump = dump


class WatchdogError(SimulationAbort):
    """The liveness watchdog detected deadlock/livelock: no forward
    progress over the configured window, or a protocol message unacked
    past its hard deadline."""


class Engine:
    """The event calendar and simulation clock."""

    __slots__ = (
        "_now", "_heap", "_ready", "_seq", "_running", "batcher",
        "batch_mode", "tracer",
    )

    def __init__(self, tracer=None) -> None:
        self._now = 0
        self._heap: List[tuple] = []
        #: zero-delay work for the current cycle (FIFO, avoids heap churn).
        self._ready: deque = deque()
        self._seq = 0
        self._running = False
        #: optional batched-replay hook (see repro.gpu.fastpath): consulted
        #: by the unbounded drain loop whenever the ready queue is empty,
        #: before the next heap pop.  Returns True when it made progress.
        #: when True, :meth:`run` uses the batched drain loop (a fast
        #: path coordinator exists for this engine).  ``batcher`` is the
        #: hook itself, installed only while lanes are actually parked so
        #: the common no-parked-lane event pays a single None check.
        self.batch_mode: bool = False
        self.batcher: Optional[Callable[[], bool]] = None
        #: event tracer shared by every component built on this engine;
        #: NULL_TRACER (enabled == False) unless a recorder is attached.
        self.tracer = NULL_TRACER
        if tracer is not None:
            self.attach_tracer(tracer)

    def attach_tracer(self, tracer) -> None:
        """Install a :class:`~repro.sim.trace.TraceRecorder` and bind it
        to this engine's clock."""
        self.tracer = tracer
        bind = getattr(tracer, "bind", None)
        if bind is not None:
            bind(self)

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` cycles."""
        if delay <= 0:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            self._ready.append((fn, args))
            return
        self._seq += 1
        _heappush(self._heap, (self._now + delay, self._seq, fn, args))

    def defer(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Continue a callback state machine ``delay`` cycles from now.

        A positive delay is one heap entry.  Zero runs ``fn(*args)`` at
        once: the machine goes on within the same callback, with no
        ready-queue hop, unlike :meth:`schedule`.  A negative delay is an
        error.
        """
        if delay > 0:
            self._seq += 1
            _heappush(self._heap, (self._now + delay, self._seq, fn, args))
        elif delay == 0:
            fn(*args)
        else:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")

    def tail(self, fn: Callable[..., None], *args: Any) -> None:
        """Hand a result to its one waiting continuation, ``fn(*args)``.

        Call it only as the last act of a callback that the drain loop
        invoked, directly or through tail calls.  With the ready queue
        empty, the continuation appended there would be the next
        callback to run, so it runs at once and sees the same state;
        otherwise it is appended to the ready queue.
        """
        ready = self._ready
        if ready:
            ready.append((fn, args))
        else:
            fn(*args)

    def run(self, until: Optional[int] = None) -> int:
        """Drain the calendar; returns the final simulation time.

        If ``until`` is given, stops once the clock would pass it (the
        clock is left at ``until``, or where it was if that is later).

        The unbounded case runs a dedicated fast loop with no deadline
        test per event; bounded runs take :meth:`run_batch_until`.  Both
        drain events in exactly the same order.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        try:
            if until is None:
                if self.batch_mode:
                    return self._drain_fast_batched()
                return self._drain_fast()
            return self.run_batch_until(until)
        finally:
            self._running = False

    def _drain_fast(self) -> int:
        """Unbounded drain: the hot loop, every lookup a local."""
        ready = self._ready
        popleft = ready.popleft
        heap = self._heap
        pop = _heappop
        while ready or heap:
            while ready:
                fn, args = popleft()
                fn(*args)
            if not heap:
                break
            when, _seq, fn, args = pop(heap)
            self._now = when
            fn(*args)
        return self._now

    def _drain_fast_batched(self) -> int:
        """Unbounded drain with the batched-replay hook installed.

        Identical event order to :meth:`_drain_fast`; between draining
        the ready queue and popping the next heap event the batcher gets
        a chance to replay parked lanes in bulk (possibly consuming heap
        events itself via :meth:`run_batch_until`).  The loop condition
        is ``True`` rather than ``ready or heap`` because parked lanes
        hold no calendar entries: the batcher is the only thing that can
        finish the run once every lane is parked.

        The engine is agnostic to *how* the batcher replays
        (repro.gpu.fastpath) — the contract is only that the hook runs
        between two calendar events (so simulator state is frozen while
        it executes) and returns True when it may have created
        ready-queue work.
        """
        ready = self._ready
        popleft = ready.popleft
        heap = self._heap
        pop = _heappop
        while True:
            while ready:
                fn, args = popleft()
                fn(*args)
            batcher = self.batcher
            if batcher is not None and batcher():
                continue
            if not heap:
                break
            when, _seq, fn, args = pop(heap)
            self._now = when
            fn(*args)
        return self._now

    def run_batch_until(self, until: int) -> int:
        """Drain every event due at or before ``until``, then advance the
        clock to ``until`` if it is behind (never backwards).

        This is the bounded :meth:`run` and the commit step of the
        batched fast path, whose events here are all benign by the
        batcher's construction (parked-lane window releases, and retry
        timers of acked invalidations, which return at once).
        Re-entrant from inside a running drain, unlike :meth:`run`."""
        ready = self._ready
        popleft = ready.popleft
        heap = self._heap
        pop = _heappop
        while ready or heap:
            while ready:
                fn, args = popleft()
                fn(*args)
            if not heap or heap[0][0] > until:
                break
            when, _seq, fn, args = pop(heap)
            self._now = when
            fn(*args)
        if until > self._now:
            self._now = until
        return self._now


class LivenessWatchdog:
    """Detects deadlock/livelock in a running simulation.

    Every ``interval`` cycles the watchdog samples a monotonically
    non-decreasing progress metric (``progress_fn``).  If the metric has
    not advanced for ``stall_window`` cycles, or ``deadline_fn`` reports
    a hard-deadline violation (e.g. an invalidation unacked too long),
    the watchdog raises :class:`WatchdogError` carrying ``dump_fn()``'s
    diagnostic snapshot — aborting ``Engine.run`` instead of hanging.

    The watchdog's own periodic check keeps the event calendar
    non-empty, so ``active_fn`` tells it when the simulation proper has
    finished and it should let the engine drain.  :meth:`start` arms
    it; each :meth:`tick` arms the next.
    """

    def __init__(
        self,
        engine: Engine,
        interval: int,
        stall_window: int,
        progress_fn: Callable[[], int],
        dump_fn: Optional[Callable[[], str]] = None,
        deadline_fn: Optional[Callable[[], Optional[str]]] = None,
        active_fn: Optional[Callable[[], bool]] = None,
    ) -> None:
        if interval < 1:
            raise SimulationError("watchdog interval must be >= 1 cycle")
        if stall_window < interval:
            raise SimulationError("watchdog stall window must be >= interval")
        self.engine = engine
        self.interval = interval
        self.stall_window = stall_window
        self.progress_fn = progress_fn
        self.dump_fn = dump_fn
        self.deadline_fn = deadline_fn
        self.active_fn = active_fn
        self.checks = 0
        self._last_progress = progress_fn()
        self._last_change = engine.now

    def start(self) -> None:
        """Arm the watchdog: the first check comes ``interval`` cycles
        after the ready-queue entry this makes runs."""
        engine = self.engine
        engine.schedule(0, engine.defer, self.interval, self.tick)

    def _abort(self, reason: str) -> None:
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit("watchdog.abort", "watchdog", reason=reason)
        raise WatchdogError(reason, dump=self.dump_fn() if self.dump_fn else "")

    def tick(self) -> None:
        """One periodic check; arms the next unless the simulation has
        finished."""
        if self.active_fn is not None and not self.active_fn():
            return
        self.checks += 1
        if self.deadline_fn is not None:
            violated = self.deadline_fn()
            if violated:
                self._abort(f"hard deadline exceeded: {violated}")
        progress = self.progress_fn()
        if progress != self._last_progress:
            self._last_progress = progress
            self._last_change = self.engine.now
        elif self.engine.now - self._last_change >= self.stall_window:
            self._abort(
                f"no forward progress for {self.engine.now - self._last_change} "
                f"cycles (metric stuck at {progress})"
            )
        self.engine.defer(self.interval, self.tick)
