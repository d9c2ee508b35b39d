"""Bookkeeping for the shootdown round trip: the driver's one in-flight
invalidation ledger.

Every logical invalidation, in every run, gets a sequence number and a
:class:`PendingInvalidation` record.  The :class:`InvalidationTracker`
owns the outstanding set, applies acks idempotently (retries and
duplicated packets re-ack the same record at most once), tracks the
hard ack deadline for the watchdog, and manages per-GPU *suspect*
state: a GPU whose invalidations repeatedly time out is degraded to
always-invalidate (it is added to every directory-filtered shootdown's
target set) until it strings together enough clean first-attempt acks.
Without a fault injector no request or ack is lost, so no record ever
times out and no GPU turns suspect.

Invalidations are always safe to *apply* — a spurious one merely costs
a refetch — so the dangerous direction is loss: the tracker exists to
guarantee no migration proceeds while any target GPU might still hold
a stale translation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..config import FaultConfig
from ..sim.engine import Engine
from ..sim.stats import StatsGroup
from ..sim.trace import NULL_TRACER

__all__ = ["PendingInvalidation", "InvalidationTracker"]


class PendingInvalidation:
    """One logical invalidation awaiting its acknowledgement."""

    __slots__ = (
        "seq", "gpu_id", "vpn", "acked", "attempts", "first_sent", "abandoned", "received",
    )

    def __init__(self, seq: int, gpu_id: int, vpn: int, now: int) -> None:
        self.seq = seq
        self.gpu_id = gpu_id
        self.vpn = vpn
        #: set exactly once, when the first surviving ack arrives.
        self.acked = False
        self.attempts = 0
        self.first_sent = now
        self.abandoned = False
        #: set by the target GPU when the first copy of the request
        #: arrives; later copies are re-acked without being re-applied.
        self.received = False


class InvalidationTracker:
    """Outstanding-invalidation table plus per-GPU suspect state."""

    def __init__(
        self,
        engine: Engine,
        config: FaultConfig,
        stats: Optional[StatsGroup] = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.engine = engine
        self.config = config
        self.stats = stats if stats is not None else StatsGroup("inval_tracker")
        self._tracer = tracer
        self._next_seq = 0
        self._pending: Dict[int, PendingInvalidation] = {}
        #: (gpu, vpn) → outstanding count, for the invariant auditor.
        self._pending_pairs: Dict[Tuple[int, int], int] = {}
        #: GPUs degraded to always-invalidate after repeated timeouts.
        self.suspects: Set[int] = set()
        #: consecutive first-attempt acks per GPU (suspect recovery).
        self._clean_streak: Dict[int, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def begin(self, gpu_id: int, vpn: int) -> PendingInvalidation:
        """Register a new logical invalidation *synchronously* (before any
        simulated latency), so there is no window in which the directory
        has been cleared but the auditor cannot see the in-flight cover."""
        self._next_seq += 1
        pending = PendingInvalidation(self._next_seq, gpu_id, vpn, self.engine._now)
        self._pending[pending.seq] = pending
        key = (gpu_id, vpn)
        self._pending_pairs[key] = self._pending_pairs.get(key, 0) + 1
        return pending

    def deliver_ack(self, pending: PendingInvalidation) -> bool:
        """An ack packet arrived; True iff it was the first (the rest are
        duplicates/late retries and are dropped idempotently)."""
        if pending.acked:
            self.stats.counter("duplicate_acks").add()
            return False
        pending.acked = True
        self._retire(pending)
        if pending.abandoned:
            # A long-lost ack finally made it after retries were
            # exhausted: unblock the stalled migration (the GPU keeps its
            # suspect status until it re-proves itself with clean acks).
            self.stats.counter("acks_after_abandon").add()
            return True
        streak = self._clean_streak.get(pending.gpu_id, 0)
        if pending.attempts == 0:
            streak += 1
            self._clean_streak[pending.gpu_id] = streak
            if pending.gpu_id in self.suspects and streak >= self.config.suspect_recovery:
                self.suspects.discard(pending.gpu_id)
                self.stats.counter("suspects_recovered").add()
                if self._tracer.enabled:
                    self._tracer.emit("inval.recover", "uvm", gpu=pending.gpu_id)
        return True

    def note_retry(self, gpu_id: int) -> None:
        """A timeout forced a retry: the GPU's clean streak is broken."""
        self._clean_streak[gpu_id] = 0

    def abandon(self, pending: PendingInvalidation) -> None:
        """Retries exhausted: mark the GPU suspect.  The record stays in
        the pending table — it *is* still unacked, the target GPU may
        still hold a stale translation, and the watchdog's ack deadline
        must keep seeing it — so the owning migration stalls until a
        long-lost ack rescues it or the watchdog aborts the run."""
        pending.abandoned = True
        self.suspects.add(pending.gpu_id)
        self._clean_streak[pending.gpu_id] = 0
        self.stats.counter("suspects_marked").add()

    def _retire(self, pending: PendingInvalidation) -> None:
        self._pending.pop(pending.seq, None)
        key = (pending.gpu_id, pending.vpn)
        count = self._pending_pairs.get(key, 0) - 1
        if count <= 0:
            self._pending_pairs.pop(key, None)
        else:
            self._pending_pairs[key] = count

    # -- queries (watchdog / auditor) --------------------------------------

    def has_pending(self) -> bool:
        return bool(self._pending)

    def is_pending_pair(self, gpu_id: int, vpn: int) -> bool:
        return (gpu_id, vpn) in self._pending_pairs

    def deadline_violation(self, deadline: int) -> Optional[str]:
        """Watchdog hook: a human-readable description of the oldest
        over-deadline invalidation, or None if all are within bounds."""
        now = self.engine.now
        worst: Optional[PendingInvalidation] = None
        for pending in self._pending.values():
            if now - pending.first_sent >= deadline:
                if worst is None or pending.first_sent < worst.first_sent:
                    worst = pending
        if worst is None:
            return None
        return (
            f"invalidation seq={worst.seq} (gpu{worst.gpu_id}, vpn={worst.vpn:#x}) "
            f"unacked for {now - worst.first_sent} cycles after "
            f"{worst.attempts + 1} attempt(s)"
        )

    def dump(self) -> str:
        """Protocol-state snapshot for abort diagnostics."""
        now = self.engine.now
        lines: List[str] = [
            f"pending invalidations: {len(self._pending)}",
        ]
        for pending in sorted(self._pending.values(), key=lambda p: p.seq):
            lines.append(
                f"  seq={pending.seq} gpu{pending.gpu_id} vpn={pending.vpn:#x} "
                f"attempts={pending.attempts + 1} age={now - pending.first_sent}"
            )
        lines.append(f"suspect GPUs: {sorted(self.suspects) or 'none'}")
        return "\n".join(lines)
