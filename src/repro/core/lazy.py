"""Lazy-invalidation controller: the glue between IRMB and GMMU (§6.3).

Responsibilities:

* accept an invalidation request: the caller shoots down TLBs
  immediately (the paper keeps baseline TLB shootdown); we insert the
  VPN into the IRMB and propagate any VPNs the insertion evicted as a
  *batched* sequence of INVALIDATE walks — they share a base, so after
  the first walk the rest hit the upper levels of the page-walk cache;
* opportunistically write back the LRU merged entry whenever a walker
  is available (idle writeback), so buffered invalidations never
  contend with demand TLB misses;
* on a new mapping's arrival, cancel the pending invalidation wherever
  it is — still merged in the IRMB, queued for propagation, or already
  in the GMMU — so a stale invalidation can never clobber a fresh PTE.

The controller is fully event-driven: when the IRMB is empty it blocks
on an insertion event, so a finished simulation drains naturally.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..gmmu.gmmu import GMMU
from ..gmmu.request import WalkKind, WalkRequest
from ..sim.engine import AllOf, Engine, Event
from ..sim.stats import StatsGroup
from .irmb import IRMB

__all__ = ["LazyInvalidationController"]


class LazyInvalidationController:
    """Drives one GPU's IRMB."""

    def __init__(
        self,
        engine: Engine,
        irmb: IRMB,
        gmmu: GMMU,
        name: str = "lazy",
        idle_writeback: bool = True,
    ) -> None:
        self.engine = engine
        self.irmb = irmb
        self.gmmu = gmmu
        self.name = name
        self.stats = StatsGroup(name)
        self._tracer = engine.tracer
        self._nonempty_waiter: Optional[Event] = None
        self._stopped = False
        #: called with the VPN whenever a writeback walk actually applies
        #: (owner GPU hooks this to flush TLB fills that raced with it).
        self.on_applied = None
        #: VPNs evicted from the IRMB whose walk has not started yet, with
        #: the number of queued walks still owed; a fresh mapping drops
        #: the VPN, and a batch reaching a VPN owed nothing skips it.
        self._queued: Dict[int, int] = {}
        #: invalidation walks in flight (submitted to the GMMU), by VPN.
        self._inflight_walks: Dict[int, WalkRequest] = {}
        if idle_writeback:
            engine.process(self._idle_writeback_loop())

    # -- invalidation arrival ------------------------------------------------

    def accept_invalidation(self, vpn: int) -> None:
        """Buffer an invalidation; never blocks the requester."""
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit("lazy.accept", self.name, vpn)
        evicted = self.irmb.insert(vpn)
        self.stats.counter("accepted").add()
        if evicted:
            self._queue(evicted)
        if self._nonempty_waiter is not None:
            waiter, self._nonempty_waiter = self._nonempty_waiter, None
            waiter.succeed()

    # -- new mapping arrival ---------------------------------------------------

    def on_new_mapping(self, vpn: int) -> bool:
        """Cancel the pending invalidation for ``vpn`` — wherever it is —
        because the caller is about to overwrite the PTE with a fresh
        mapping via an UPDATE walk.

        Returns True iff *any* pending invalidation was cancelled
        (removed from the IRMB, dropped from the walk queue, or aborted
        in flight).  A cancelled invalidation will never *apply*, so its
        apply-time raced-fill flush will never run — the caller owns
        flushing TLB fills that raced with the original shootdown.
        """
        tracer = self._tracer
        traced = tracer.enabled
        cancelled = self.irmb.remove(vpn)
        if cancelled:
            self.stats.counter("cancelled_by_mapping").add()
            if traced:
                tracer.emit("lazy.cancel", self.name, vpn, where="irmb")
        if self._queued.pop(vpn, 0):
            cancelled = True
            self.stats.counter("cancelled_queued").add()
            if traced:
                tracer.emit("lazy.cancel", self.name, vpn, where="queued")
        pending = self._inflight_walks.get(vpn)
        if pending is not None:
            pending.aborted = True
            cancelled = True
            self.stats.counter("aborted_inflight").add()
            if traced:
                tracer.emit("lazy.cancel", self.name, vpn, where="inflight")
        return cancelled

    def force_evict(self) -> int:
        """Evict the LRU merged entry right now and propagate its walks
        (fault injection's artificial IRMB overflow pressure); returns
        the number of VPNs pushed out."""
        vpns = self.irmb.pop_lru_entry()
        if not vpns:
            return 0
        self.stats.counter("forced_evictions").add()
        if self._tracer.enabled:
            self._tracer.emit("lazy.force_evict", self.name, count=len(vpns))
        self._queue(vpns)
        return len(vpns)

    def pending_vpns(self) -> Set[int]:
        """Every VPN whose invalidation has been accepted but not yet
        applied to the page table: still merged in the IRMB, queued for
        propagation, or walking.  Such VPNs legitimately have stale local
        PTEs (the IRMB masks them), so the invariant auditor excuses
        them."""
        pending = set(self.irmb.pending_vpns())
        pending.update(self._queued)
        pending.update(self._inflight_walks)
        return pending

    # -- demand-miss probe ------------------------------------------------------

    def probe(self, vpn: int) -> bool:
        """IRMB lookup in parallel with the L2 TLB: a hit means the local
        PTE is stale, so the demand miss must bypass the local walk and
        fault to the host directly."""
        hit = self.irmb.lookup(vpn)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit("irmb.probe", self.name, vpn, hit=hit)
        return hit

    # -- propagation -----------------------------------------------------------

    def _queue(self, vpns: List[int], paced: bool = False):
        """Owe one INVALIDATE walk per VPN; start and return their batch."""
        queued = self._queued
        for vpn in vpns:
            queued[vpn] = queued.get(vpn, 0) + 1
        return self.engine.process(self._propagate(vpns, paced))

    def _start_walk(self, vpn: int) -> Optional[WalkRequest]:
        """Submit one INVALIDATE walk unless a fresh mapping cancelled
        every walk owed for ``vpn`` meanwhile."""
        owed = self._queued.pop(vpn, 0)
        if not owed:
            self.stats.counter("skipped_cancelled").add()
            return None
        if owed > 1:
            self._queued[vpn] = owed - 1
        request = self.gmmu.walk(vpn, WalkKind.INVALIDATE)
        self._inflight_walks[vpn] = request
        request.done.add_callback(
            lambda _ev, vpn=vpn, request=request: self._walk_retired(vpn, request)
        )
        return request

    def _walk_retired(self, vpn: int, request: WalkRequest) -> None:
        if self._inflight_walks.get(vpn) is request:
            del self._inflight_walks[vpn]
        if not request.aborted and self.on_applied is not None:
            self.on_applied(vpn)

    def _propagate(self, vpns: Iterable[int], paced: bool = False):
        """Batch of INVALIDATE walks for one merged entry.

        Capacity evictions submit the whole batch at once (the paper's
        forced evictions do contend); idle writebacks run *paced* — one
        walk at a time, yielding the walker back whenever demand work
        shows up, so they "neither affect demand TLB miss requests nor
        page migration" (§6.3).
        """
        batch: List[int] = list(vpns)
        self.stats.counter("propagated_vpns").add(len(batch))
        self.stats.counter("propagated_batches").add()
        if self._tracer.enabled:
            self._tracer.emit("lazy.propagate", self.name, count=len(batch), paced=paced)
        t0 = self.engine.now
        if paced:
            for vpn in batch:
                request = self._start_walk(vpn)
                if request is None:
                    continue
                yield request.done
                if not self.gmmu.has_available_walker:
                    yield self.gmmu.wait_idle()
        else:
            events = []
            for vpn in batch:
                request = self._start_walk(vpn)
                if request is not None:
                    events.append(request.done)
            yield AllOf(self.engine, events)
        self.stats.latency("batch_latency").record(self.engine.now - t0)

    def _idle_writeback_loop(self):
        """Retire the LRU merged entry whenever the walker pool drains."""
        while not self._stopped:
            if self.irmb.is_empty:
                self._nonempty_waiter = self.engine.event()
                yield self._nonempty_waiter
                if self._stopped:
                    return
            yield self.gmmu.wait_idle()
            if self._stopped:
                return
            if self.irmb.is_empty or not self.gmmu.has_available_walker:
                continue
            vpns = self.irmb.pop_lru_entry()
            if vpns:
                self.stats.counter("idle_writeback_entries").add()
                yield self._queue(vpns, paced=True)

    def snapshot(self) -> dict:
        """Stats only: at a quiescent instant nothing is queued for or in
        a walk (the IRMB itself is snapshotted by its owner GPU)."""
        if self._queued or self._inflight_walks:
            raise RuntimeError("lazy controller snapshot with work in flight")
        return {"stats": self.stats.snapshot()}

    def restore(self, state: dict) -> None:
        self.stats.restore(state["stats"])

    def stop(self) -> None:
        """Stop the background writeback loop (end of simulation)."""
        self._stopped = True
        if self._nonempty_waiter is not None and not self._nonempty_waiter.triggered:
            waiter, self._nonempty_waiter = self._nonempty_waiter, None
            waiter.succeed()

    def flush(self):
        """Force-propagate everything (end-of-run drain); a process body."""
        while not self.irmb.is_empty:
            vpns = self.irmb.pop_lru_entry()
            if vpns:
                yield self._queue(vpns)
