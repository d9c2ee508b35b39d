"""GPU memory-management unit.

Structure follows §3.1: a FIFO page-walk queue in front of a pool of
walker threads (8, Table 2) that share one page-walk cache (128
entries).  A walk costs 100 cycles per level not covered by the
PWC.  Crucially, *all three* request kinds — demand translations, PTE
invalidations, and PTE updates — traverse the same queue, PWC, and
thread pool; the resulting contention is the phenomenon the paper
measures (§5.2) and IDYLL removes.

The queue and the thread pool form an analytic FIFO server: a walk
starts at once when nothing is queued and a thread is free, a retiring
walk hands its thread straight to the head of the queue, and each walk
costs one calendar entry, at its completion.  The walk's continuation
runs after its thread has passed on.  The queue is unbounded:
no submitter ever waits for a slot, so Table 2's 64-entry size bounds
nothing here and is not modelled.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from ..config import GMMUConfig
from ..memory.page_table import PageTable
from ..memory.walk_cache import PageWalkCache
from ..sim.engine import Engine
from ..sim.stats import StatsGroup
from .request import WalkKind, WalkRequest

__all__ = ["GMMU"]

# Bound once: enum member access is a metaclass lookup, and these are
# tested several times per walk.
_DEMAND = WalkKind.DEMAND
_INVALIDATE = WalkKind.INVALIDATE


class GMMU:
    """Page-table walking engine of one GPU."""

    __slots__ = (
        "engine", "config", "page_table", "name", "_injector", "stats",
        "_tracer", "pwc", "_queue", "_threads", "_busy", "_idle_waiters",
        "_inval_inflight", "_inval_since", "_inval_busy",
        "_any_inflight", "_any_since", "_any_busy", "_kind_stats",
        "_n_aborted", "_n_inval_necessary", "_n_inval_unnecessary",
    )

    def __init__(
        self,
        engine: Engine,
        config: GMMUConfig,
        page_table: PageTable,
        name: str = "gmmu",
        injector=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.page_table = page_table
        self.name = name
        #: fault injector (None in unfaulted runs): may stall walks.
        self._injector = injector
        self.stats = StatsGroup(name)
        self._tracer = engine.tracer
        self.pwc = PageWalkCache(config.walk_cache_entries, page_table.layout, f"{name}.pwc")
        #: walks waiting for a thread, oldest first.
        self._queue: Deque[WalkRequest] = deque()
        self._threads = config.walker_threads
        #: walker threads currently running a walk.
        self._busy = 0
        #: continuations ``(fn, args)`` waiting for an available walker.
        self._idle_waiters: List[tuple] = []
        # Busy-time integrators: cycles during which >=1 invalidation
        # (resp. any) request was in the GMMU, submit-to-done.  Used by
        # the Fig.-1 invalidation-overhead measurement.
        self._inval_inflight = 0
        self._inval_since = 0
        self._inval_busy = 0
        self._any_inflight = 0
        self._any_since = 0
        self._any_busy = 0
        # Bound once: every walk bumps its kind's statistics.  Kind ->
        # (submitted, queue_wait, walk_levels, total); a walk takes its
        # tuple at submit and carries it to retirement.
        group = self.stats
        self._kind_stats = {
            kind: (
                group.counter(f"submitted.{kind.value}"),
                group.latency(f"queue_wait.{kind.value}"),
                group.latency(f"walk_levels.{kind.value}"),
                group.latency(f"total.{kind.value}"),
            )
            for kind in WalkKind
        }
        self._n_aborted = group.counter("aborted_walks")
        self._n_inval_necessary = group.counter("invalidations.necessary")
        self._n_inval_unnecessary = group.counter("invalidations.unnecessary")

    # -- submission --------------------------------------------------------

    def submit(self, request: WalkRequest) -> None:
        """Start the walk now if nothing is queued and a walker thread is
        free, else queue it behind the walks already waiting."""
        stats = request.stats = self._kind_stats[request.kind]
        stats[0].value += 1
        now = self.engine._now
        if request.kind is _INVALIDATE:
            if self._inval_inflight == 0:
                self._inval_since = now
            self._inval_inflight += 1
        if self._any_inflight == 0:
            self._any_since = now
        self._any_inflight += 1
        if self._busy < self._threads and not self._queue:
            self._busy += 1
            if not self._walk(request):
                self._release()
        else:
            self._queue.append(request)

    def walk(self, vpn: int, kind: WalkKind, fn: Callable[..., None], *args: Any,
             word: Optional[int] = None) -> WalkRequest:
        """Build and submit a walk whose continuation is ``fn(*args,
        result)``; returns the request."""
        request = WalkRequest(vpn, kind, self.engine._now, fn, args, word)
        self.submit(request)
        return request

    # -- idleness (used by lazy-invalidation writeback, §6.3) ---------------

    @property
    def is_idle(self) -> bool:
        return self._busy == 0 and not self._queue

    @property
    def has_available_walker(self) -> bool:
        """Queue drained and at least one walker thread free."""
        return not self._queue and self._busy < self._threads

    @property
    def load(self) -> int:
        """Queued plus in-flight walks."""
        return len(self._queue) + self._busy

    # -- internals ----------------------------------------------------------

    def _walk(self, request: WalkRequest) -> bool:
        """Run ``request`` on the walker thread it was just given; False
        when it was aborted while queued and the thread is free again."""
        # One tracer-enabled test per call, not one per emission site:
        # the untraced fast path pays a single branch.
        tracer = self._tracer
        traced = tracer.enabled
        request.started_at = self.engine._now
        queue_wait = request.started_at - request.issued_at
        request.stats[1].record(queue_wait)

        if request.aborted:
            # Superseded while queued (a fresh mapping arrived): drop it.
            self._n_aborted.value += 1
            if traced:
                tracer.emit("walk.abort", self.name, request.vpn, kind=request.kind.value)
            self._account_done(request)
            self.engine._ready.append((request.fn, request.args + (None,)))
            return False

        cached_level = self.pwc.deepest_cached_level(request.vpn)
        levels = self.page_table.walk_levels(request.vpn, cached_level)
        if traced:
            tracer.emit(
                "walk.start", self.name, request.vpn,
                kind=request.kind.value, levels=levels, queue_wait=queue_wait,
            )
        if self._injector is not None:
            stall = self._injector.walker_stall(self.name)
            if stall:
                if traced:
                    tracer.emit(
                        "fault.inject", self.name, request.vpn,
                        kind="walker_stall", cycles=stall,
                    )
                self.engine.defer(stall, self._walk_levels, request, levels)
                return True
        self._walk_levels(request, levels)
        return True

    def _walk_levels(self, request: WalkRequest, levels: int) -> None:
        # ``schedule``, not ``defer``: a zero-cycle walk retires one
        # ready hop later rather than inline, so a thread handed down a
        # long queue of them never recurses.
        self.engine.schedule(
            levels * self.config.walk_latency_per_level, self._walk_done, request, levels
        )

    def _walk_done(self, request: WalkRequest, levels: int) -> None:
        _, _, lat_levels, lat_total = request.stats
        self.pwc.fill(request.vpn)
        lat_levels.record(levels)

        if request.kind is _DEMAND:
            result = self.page_table.translate(request.vpn)
        elif request.kind is _INVALIDATE:
            if request.aborted:
                # A fresh mapping raced in while we were walking: leave it.
                self._n_aborted.value += 1
                request.was_valid = False
                result = False
            else:
                request.was_valid = self.page_table.invalidate(request.vpn)
                if request.was_valid:
                    self._n_inval_necessary.value += 1
                else:
                    self._n_inval_unnecessary.value += 1
                result = request.was_valid
        else:  # UPDATE
            assert request.word is not None, "UPDATE walk needs a PTE word"
            self.page_table.set_entry(request.vpn, request.word)
            result = request.word

        total = self.engine._now - request.issued_at
        lat_total.record(total)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                "walk.done", self.name, request.vpn,
                kind=request.kind.value, levels=levels, cycles=total,
            )
        self._account_done(request)
        ready = self.engine._ready
        if ready:
            # A zero-cycle walk retiring behind other ready work: the
            # continuation queues behind that work.
            ready.append((request.fn, request.args + (result,)))
            self._release()
            return
        # The continuation is the next callback to run (Engine.tail), so
        # it runs last, after the thread has passed on: whatever
        # ``_release`` queued stays behind it.
        self._release()
        request.fn(*request.args, result)

    def _release(self) -> None:
        """A walk left its thread: hand the thread to the oldest queued
        walk still live, or free it and wake the idle waiters (the queue
        is empty and a thread is free: a walker is available)."""
        queue = self._queue
        while queue:
            if self._walk(queue.popleft()):
                return
        self._busy -= 1
        if self._idle_waiters:
            waiters, self._idle_waiters = self._idle_waiters, []
            self.engine._ready.extend(waiters)

    def _account_done(self, request: WalkRequest) -> None:
        now = self.engine._now
        if request.kind is _INVALIDATE:
            self._inval_inflight -= 1
            if self._inval_inflight == 0:
                self._inval_busy += now - self._inval_since
        self._any_inflight -= 1
        if self._any_inflight == 0:
            self._any_busy += now - self._any_since

    def invalidation_busy_cycles(self) -> int:
        """Cycles so far during which >=1 invalidation was being handled."""
        busy = self._inval_busy
        if self._inval_inflight > 0:
            busy += self.engine.now - self._inval_since
        return busy

    def any_busy_cycles(self) -> int:
        """Cycles so far during which the GMMU had any request in flight."""
        busy = self._any_busy
        if self._any_inflight > 0:
            busy += self.engine.now - self._any_since
        return busy

    def wait_idle(self, fn: Callable[..., None], *args: Any) -> None:
        """Call ``fn(*args)`` from the ready queue the next time a walker
        is *available* — the walk queue is empty and at least one walker
        thread is free (§6.3: the lazy writeback runs "when the page
        table walker is available"); at once if one is now."""
        if self.has_available_walker:
            self.engine._ready.append((fn, args))
        else:
            self._idle_waiters.append((fn, args))
