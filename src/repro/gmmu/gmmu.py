"""GPU memory-management unit.

Structure follows §3.1: a page-walk queue (64 entries) in front of a
pool of walker threads (8, Table 2) that share one page-walk cache
(128 entries).  A walk costs 100 cycles per level not covered by the
PWC.  Crucially, *all three* request kinds — demand translations, PTE
invalidations, and PTE updates — traverse the same queue, PWC, and
thread pool; the resulting contention is the phenomenon the paper
measures (§5.2) and IDYLL removes.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import GMMUConfig
from ..memory.page_table import PageTable
from ..memory.walk_cache import PageWalkCache
from ..sim.engine import Engine, Event
from ..sim.process import Resource, Store
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
        "_tracer", "pwc", "queue", "walkers", "_idle_waiters",
        "_inval_inflight", "_inval_since", "_inval_busy",
        "_any_inflight", "_any_since", "_any_busy", "_kind_stats",
        "_next_request",
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
        self.queue: Store = Store(engine, capacity=config.walk_queue_entries)
        self.walkers = Resource(engine, config.walker_threads)
        self._idle_waiters: List[Event] = []
        # Busy-time integrators: cycles during which >=1 invalidation
        # (resp. any) request was in the GMMU, submit-to-done.  Used by
        # the Fig.-1 invalidation-overhead measurement.
        self._inval_inflight = 0
        self._inval_since = 0
        self._inval_busy = 0
        self._any_inflight = 0
        self._any_since = 0
        self._any_busy = 0
        # Per-kind stat objects, bound lazily on first use: the f-string
        # key construction plus StatsGroup dict probe is measurable at
        # one-per-walk rates.
        self._kind_stats: dict = {}
        #: the request the dispatcher holds while it waits for a walker.
        self._next_request: Optional[WalkRequest] = None
        # The dispatcher's first step, queued where a dispatcher process
        # would have been started.
        engine._ready.append((self._dispatch, ()))

    def _stats_for(self, kind: WalkKind) -> tuple:
        stats = self._kind_stats.get(kind)
        if stats is None:
            v = kind.value
            group = self.stats
            stats = (
                group.counter(f"submitted.{v}"),
                group.latency(f"queue_wait.{v}"),
                group.latency(f"walk_levels.{v}"),
                group.latency(f"total.{v}"),
            )
            self._kind_stats[kind] = stats
        return stats

    # -- submission --------------------------------------------------------

    def submit(self, request: WalkRequest) -> Event:
        """Enqueue a walk; the returned event fires when it is *accepted*
        into the queue (backpressure when the 64-entry queue is full)."""
        self._stats_for(request.kind)[0].add()
        if request.kind is _INVALIDATE:
            if self._inval_inflight == 0:
                self._inval_since = self.engine.now
            self._inval_inflight += 1
        if self._any_inflight == 0:
            self._any_since = self.engine.now
        self._any_inflight += 1
        return self.queue.put(request)

    def walk(self, vpn: int, kind: WalkKind, word: Optional[int] = None) -> WalkRequest:
        """Convenience: build, submit, and return a request whose ``done``
        event fires on completion."""
        engine = self.engine
        request = WalkRequest(
            vpn=vpn, kind=kind, issued_at=engine._now, done=Event(engine), word=word
        )
        self.submit(request)
        return request

    # -- idleness (used by lazy-invalidation writeback, §6.3) ---------------

    @property
    def is_idle(self) -> bool:
        return self.walkers.in_use == 0 and len(self.queue) == 0

    @property
    def has_available_walker(self) -> bool:
        """Queue drained and at least one walker thread free."""
        return len(self.queue) == 0 and self.walkers.idle > 0

    @property
    def load(self) -> int:
        """Queued plus in-flight walks."""
        return len(self.queue) + self.walkers.in_use

    # -- internals ----------------------------------------------------------

    # The dispatcher and each walk are callback state machines: every
    # ready-queue append and heap push happens where the generator
    # processes they replace would have made it, so the event calendar
    # is unchanged (DESIGN.md §7.1).

    def _dispatch(self) -> None:
        """Dispatcher step: wait for the next queued request."""
        self.queue.get().add_callback(self._dispatch_got)

    def _dispatch_got(self, ev: Event) -> None:
        self._next_request = ev._value
        self.walkers.request().add_callback(self._dispatch_granted)

    def _dispatch_granted(self, _ev: Event) -> None:
        # A walker is ours: start the walk (one ready hop, as a new
        # process would take), then go back for the next request.
        request, self._next_request = self._next_request, None
        self.engine._ready.append((self._walk, (request,)))
        self.queue.get().add_callback(self._dispatch_got)

    def _walk(self, request: WalkRequest) -> None:
        # One tracer-enabled test per call, not one per emission site:
        # the untraced fast path pays a single branch.
        tracer = self._tracer
        traced = tracer.enabled
        # (submitted, queue_wait, walk_levels, total) for this kind,
        # carried along the walk's calendar entries.
        stats = self._stats_for(request.kind)
        request.started_at = self.engine._now
        queue_wait = request.started_at - request.issued_at
        stats[1].record(queue_wait)

        if request.aborted:
            # Superseded while queued (a fresh mapping arrived): drop it.
            self.stats.counter("aborted_walks").add()
            if traced:
                tracer.emit("walk.abort", self.name, request.vpn, kind=request.kind.value)
            self.walkers.release()
            self._account_done(request)
            request.done.succeed(None)
            self._wake_idle_waiters()
            return

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
                self.engine.defer(stall, self._walk_levels, request, levels, stats)
                return
        self._walk_levels(request, levels, stats)

    def _walk_levels(self, request: WalkRequest, levels: int, stats: tuple) -> None:
        self.engine.defer(
            levels * self.config.walk_latency_per_level, self._walk_done, request, levels, stats
        )

    def _walk_done(self, request: WalkRequest, levels: int, stats: tuple) -> None:
        _, _, lat_levels, lat_total = stats
        self.pwc.fill(request.vpn)
        lat_levels.record(levels)

        if request.kind is _DEMAND:
            result = self.page_table.translate(request.vpn)
        elif request.kind is _INVALIDATE:
            if request.aborted:
                # A fresh mapping raced in while we were walking: leave it.
                self.stats.counter("aborted_walks").add()
                request.was_valid = False
                result = False
            else:
                request.was_valid = self.page_table.invalidate(request.vpn)
                self.stats.counter(
                    "invalidations.necessary" if request.was_valid else "invalidations.unnecessary"
                ).add()
                result = request.was_valid
        else:  # UPDATE
            assert request.word is not None, "UPDATE walk needs a PTE word"
            self.page_table.set_entry(request.vpn, request.word)
            result = request.word

        self.walkers.release()
        total = self.engine._now - request.issued_at
        lat_total.record(total)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                "walk.done", self.name, request.vpn,
                kind=request.kind.value, levels=levels, cycles=total,
            )
        self._account_done(request)
        request.done.succeed(result)
        self._wake_idle_waiters()

    def _account_done(self, request: WalkRequest) -> None:
        if request.kind is _INVALIDATE:
            self._inval_inflight -= 1
            if self._inval_inflight == 0:
                self._inval_busy += self.engine.now - self._inval_since
        self._any_inflight -= 1
        if self._any_inflight == 0:
            self._any_busy += self.engine.now - self._any_since

    def _wake_idle_waiters(self) -> None:
        if self.has_available_walker:
            waiters, self._idle_waiters = self._idle_waiters, []
            for ev in waiters:
                ev.succeed()

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

    def snapshot(self) -> dict:
        """Plain-data state at a quiescent instant (no walk in flight)."""
        if self._any_inflight:
            raise RuntimeError("GMMU snapshot with walks in flight")
        return {
            "inval_busy": self._inval_busy,
            "any_busy": self._any_busy,
            "pwc": self.pwc.snapshot(),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._inval_busy = state["inval_busy"]
        self._any_busy = state["any_busy"]
        self._inval_inflight = self._inval_since = 0
        self._any_inflight = self._any_since = 0
        self.pwc.restore(state["pwc"])
        self.stats.restore(state["stats"])

    def wait_idle(self) -> Event:
        """Event fired the next time a walker is *available* — the walk
        queue is empty and at least one walker thread is free (§6.3: the
        lazy writeback runs "when the page table walker is available")."""
        ev = self.engine.event()
        if self.has_available_walker:
            ev.succeed()
        else:
            self._idle_waiters.append(ev)
        return ev
