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

The controller is a set of callback state machines (DESIGN.md §7.1):
each propagation batch is a :class:`_Batch`, and the idle-writeback
loop's states are controller methods.  When the IRMB is empty the loop
waits for an insertion, so a finished simulation drains naturally.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from ..gmmu.gmmu import GMMU
from ..gmmu.request import WalkKind, WalkRequest
from ..sim.engine import Engine
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
        self._n_accepted = self.stats.counter("accepted")
        self._tracer = engine.tracer
        #: the idle-writeback loop is waiting for an insertion.
        self._nonempty_waiter = False
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
            # The idle-writeback loop starts from the ready queue.
            engine.schedule(0, self._writeback)

    # -- invalidation arrival ------------------------------------------------

    def accept_invalidation(self, vpn: int) -> None:
        """Buffer an invalidation; never blocks the requester."""
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit("lazy.accept", self.name, vpn)
        evicted = self.irmb.insert(vpn)
        self._n_accepted.value += 1
        if evicted:
            self._queue(evicted)
        if self._nonempty_waiter:
            self._nonempty_waiter = False
            self.engine.schedule(0, self._inserted)

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

    def _queue(self, vpns: List[int], paced: bool = False,
               fn: Optional[Callable[..., None]] = None, args: tuple = ()) -> None:
        """Owe one INVALIDATE walk per VPN and start their batch from the
        ready queue; ``fn(*args)``, if given, runs once it is done."""
        queued = self._queued
        for vpn in vpns:
            queued[vpn] = queued.get(vpn, 0) + 1
        self.engine.schedule(0, _Batch(self, vpns, paced, fn, args).start)

    def _start_walk(self, batch: "_Batch", vpn: int) -> bool:
        """Submit one INVALIDATE walk for ``batch`` unless a fresh mapping
        cancelled every walk owed for ``vpn`` meanwhile."""
        owed = self._queued.pop(vpn, 0)
        if not owed:
            self.stats.counter("skipped_cancelled").add()
            return False
        if owed > 1:
            self._queued[vpn] = owed - 1
        request = self.gmmu.walk(vpn, WalkKind.INVALIDATE, batch.walked, vpn)
        self._inflight_walks[vpn] = batch.walks[vpn] = request
        return True

    def _walk_retired(self, vpn: int, request: WalkRequest) -> None:
        if self._inflight_walks.get(vpn) is request:
            del self._inflight_walks[vpn]
        if not request.aborted and self.on_applied is not None:
            self.on_applied(vpn)

    # -- idle writeback: "retire the LRU merged entry whenever the walker
    # pool drains", one state per wait --------------------------------------

    def _writeback(self) -> None:
        if self._stopped:
            return
        if self.irmb.is_empty:
            self._nonempty_waiter = True
            return
        self.gmmu.wait_idle(self._walker_idle)

    def _inserted(self) -> None:
        if self._stopped:
            return
        self.gmmu.wait_idle(self._walker_idle)

    def _walker_idle(self) -> None:
        if self._stopped:
            return
        if self.irmb.is_empty or not self.gmmu.has_available_walker:
            self._writeback()
            return
        vpns = self.irmb.pop_lru_entry()
        if vpns:
            self.stats.counter("idle_writeback_entries").add()
            self._queue(vpns, paced=True, fn=self._writeback)
            return
        self._writeback()

    def stop(self) -> None:
        """Stop the background writeback loop (end of simulation)."""
        self._stopped = True
        self._nonempty_waiter = False

    def flush(self, fn: Optional[Callable[..., None]] = None, *args: Any) -> None:
        """Force-propagate everything (end-of-run drain), one merged
        entry at a time; ``fn(*args)``, if given, runs once it is done."""
        while not self.irmb.is_empty:
            vpns = self.irmb.pop_lru_entry()
            if vpns:
                self._queue(vpns, fn=self.flush, args=(fn,) + args)
                return
        if fn is not None:
            self.engine.tail(fn, *args)


class _Batch:
    """A batch of INVALIDATE walks for one merged entry.

    Capacity evictions submit the whole batch at once (the paper's
    forced evictions do contend) and count its walks down; idle
    writebacks run *paced* — one walk at a time, yielding the walker
    back whenever demand work shows up, so they "neither affect demand
    TLB miss requests nor page migration" (§6.3).  Each walk's
    continuation first retires the walk in the controller's books, then
    advances the batch.
    """

    __slots__ = ("lazy", "vpns", "paced", "fn", "args", "t0", "walks", "next")

    def __init__(self, lazy: LazyInvalidationController, vpns: Iterable[int],
                 paced: bool, fn: Optional[Callable[..., None]], args: tuple) -> None:
        self.lazy = lazy
        self.vpns: List[int] = list(vpns)
        self.paced = paced
        self.fn = fn
        self.args = args
        self.t0 = 0
        #: the batch's walks in flight, by VPN (an entry's VPNs are
        #: distinct); a capacity eviction is done when it empties.
        self.walks: Dict[int, WalkRequest] = {}
        #: index of the next VPN a paced batch walks.
        self.next = 0

    def start(self) -> None:
        lazy = self.lazy
        batch = self.vpns
        lazy.stats.counter("propagated_vpns").add(len(batch))
        lazy.stats.counter("propagated_batches").add()
        if lazy._tracer.enabled:
            lazy._tracer.emit("lazy.propagate", lazy.name, count=len(batch), paced=self.paced)
        self.t0 = lazy.engine.now
        if self.paced:
            self._walk_next()
            return
        for vpn in batch:
            lazy._start_walk(self, vpn)
        if not self.walks:
            lazy.engine.tail(self._done)

    def _walk_next(self) -> None:
        lazy = self.lazy
        vpns = self.vpns
        while self.next < len(vpns):
            vpn = vpns[self.next]
            self.next += 1
            if lazy._start_walk(self, vpn):
                return
        self._done()

    def walked(self, vpn: int, _was_valid) -> None:
        lazy = self.lazy
        lazy._walk_retired(vpn, self.walks.pop(vpn))
        if self.paced:
            gmmu = lazy.gmmu
            if not gmmu.has_available_walker:
                gmmu.wait_idle(self._walk_next)
                return
            self._walk_next()
            return
        if not self.walks:
            lazy.engine.tail(self._done)

    def _done(self) -> None:
        lazy = self.lazy
        lazy.stats.latency("batch_latency").record(lazy.engine.now - self.t0)
        if self.fn is not None:
            lazy.engine.tail(self.fn, *self.args)
