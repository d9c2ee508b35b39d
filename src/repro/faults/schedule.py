"""Scheduled (trace-driven) fault injection and campaign supervision.

The uniform-rate :class:`~repro.faults.injector.FaultInjector` models
background noise: every message everywhere shares the same loss
statistics.  Real failures are *episodic* — a link goes down for twenty
thousand cycles, recovers, and the interesting question is how long the
invalidation protocol takes to drain its retry backlog.  This module
layers a time-varying overlay on the injector:

* :class:`FaultTimeline` — a cursor-cached view over a
  :class:`~repro.config.ChaosTraceSpec`: which episodes are active *now*.
  Episode activity is a pure function of the clock, so the overlay needs
  no activation events of its own.
* :class:`ScheduledFaultInjector` — a :class:`FaultInjector` subclass
  whose decisions consult the timeline.  Base streams are drawn exactly
  as the parent does (same tags, same draw counts), so a chaos run with
  base rates keeps the parent's fault sequence; chaos decisions draw
  from separate ``chaos:*`` streams.  With all base rates zero the
  overlay is a pure pass-through outside episodes, which is what lets
  the batched replay fast path stay armed (``fastpath_safe``).
* :class:`ChaosController` — a calendar process that opens episode
  records at their start times, polls the system during episodes and
  the post-episode drain, and closes each record with recovery metrics
  (time-to-recover, retry/degradation deltas, watchdog near-misses,
  a residency audit).  Its wake schedule is a pure function of
  ``(now, timeline, open records)``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..config import ChaosEpisode, ChaosTraceSpec, FaultConfig
from ..sim.rng import stream
from ..sim.trace import NULL_TRACER
from .injector import FaultInjector, MessagePlan

__all__ = [
    "FaultTimeline", "ScheduledFaultInjector", "ChaosController",
    "CHAOS_FAULT_KINDS", "RECOVERY_POLL",
]

#: labels of overlay-injected effects (counter ``injected.<label>``).
CHAOS_FAULT_KINDS = (
    "chaos.drop", "chaos.stall", "chaos.jitter",
    "chaos.walker_stall", "chaos.irmb_evict",
)

#: recovery-poll cadence; polls land on absolute multiples of this.
RECOVERY_POLL = 2500


class FaultTimeline:
    """Query-time view of a failure trace: which episodes are active at
    a given cycle.  An episode is active over ``[start, end)``.

    Queries with non-decreasing ``now`` advance a cursor (O(1) amortised
    per episode), as the running model's are; a backwards query (a
    report or test asking about an earlier cycle) rebuilds from the
    start — correct, just slower.
    """

    def __init__(self, spec: ChaosTraceSpec) -> None:
        self.spec = spec
        self.episodes: Tuple[ChaosEpisode, ...] = spec.episodes
        self._cursor = 0
        self._open: List[ChaosEpisode] = []
        self._last_now = -1

    def reset(self) -> None:
        self._cursor = 0
        self._open = []
        self._last_now = -1

    def _advance(self, now: int) -> None:
        if now < self._last_now:
            self.reset()
        eps = self.episodes
        while self._cursor < len(eps) and eps[self._cursor].start <= now:
            self._open.append(eps[self._cursor])
            self._cursor += 1
        if self._open:
            self._open = [ep for ep in self._open if ep.end > now]
        self._last_now = now

    def active_at(self, now: int) -> Tuple[ChaosEpisode, ...]:
        self._advance(now)
        return tuple(self._open)

    def link_episode(self, link_name: str, now: int) -> Optional[ChaosEpisode]:
        """The episode governing ``link_name`` at ``now``.  If a
        hand-written trace overlaps episodes on one link, a total outage
        dominates a degraded window; ties break to the higher severity,
        then the earlier eid."""
        self._advance(now)
        best = None
        for ep in self._open:
            if ep.target != link_name or not ep.is_link_episode:
                continue
            if best is None or (
                (ep.kind == "link_down", ep.severity, -ep.eid)
                > (best.kind == "link_down", best.severity, -best.eid)
            ):
                best = ep
        return best

    def gpu_episode(self, site: str, kind: str, now: int) -> Optional[ChaosEpisode]:
        """The highest-severity active ``kind`` episode at GPU ``site``."""
        self._advance(now)
        best = None
        for ep in self._open:
            if ep.target != site or ep.kind != kind:
                continue
            if best is None or (ep.severity, -ep.eid) > (best.severity, -best.eid):
                best = ep
        return best

    def exhausted(self, now: int) -> bool:
        """No episode is active now and none starts later."""
        self._advance(now)
        return self._cursor >= len(self.episodes) and not self._open


class ScheduledFaultInjector(FaultInjector):
    """Fault injector driven by a failure trace on top of (optional)
    uniform base rates.

    The parent's decisions are always drawn first with the parent's tags
    and draw counts, so enabling a trace never re-aligns the base
    streams.  Overlay decisions use dedicated ``chaos:<tag>`` streams
    and are only consulted while a matching episode is active — outside
    episodes the overlay is bit-for-bit the parent.
    """

    def __init__(
        self,
        config: FaultConfig,
        seed: int,
        timeline: FaultTimeline,
        engine,
        tracer=NULL_TRACER,
    ) -> None:
        super().__init__(config, seed, tracer=tracer)
        self.timeline = timeline
        self.engine = engine
        #: wired by the system; lets link-level effects hit the per-link
        #: ``chaos.*`` counters that campaign reports attribute by target.
        self.interconnect = None
        self._chaos_streams: Dict[str, random.Random] = {}
        #: eid -> {effect label: count} — per-episode injection ledger.
        self._episode_stats: Dict[int, Dict[str, int]] = {}

    @property
    def fastpath_safe(self) -> bool:
        # With no uniform base rates the overlay only perturbs event-path
        # machinery (messages, transfers, walks, IRMB accepts) — all of
        # which the fast path's park gauges already fence — so batched
        # replay stays observationally sound.  Any base rate forces the
        # event path exactly as the parent does.
        return not self.config.enabled

    def _chaos_stream(self, tag: str) -> random.Random:
        rng = self._chaos_streams.get(tag)
        if rng is None:
            rng = self._chaos_streams[tag] = stream(self.seed, f"chaos:{tag}")
        return rng

    def _note(self, episode: ChaosEpisode, label: str, link=None) -> None:
        self.stats.counter(f"injected.{label}").add()
        rec = self._episode_stats.setdefault(episode.eid, {})
        rec[label] = rec.get(label, 0) + 1
        if link is not None:
            link.note_chaos(label.split(".", 1)[1])
        if self._tracer.enabled:
            self._tracer.emit(
                "chaos.inject", "chaos",
                eid=episode.eid, kind=episode.kind, effect=label,
            )

    def episode_stats(self, eid: int) -> Dict[str, int]:
        return dict(self._episode_stats.get(eid, {}))

    # -- overlaid decisions -------------------------------------------------

    def message_plan(self, tag: str, link: str = None) -> MessagePlan:
        plan = super().message_plan(tag)
        if link is None or plan.drop:
            return plan
        ep = self.timeline.link_episode(link, self.engine.now)
        if ep is None:
            return plan
        link_obj = (
            self.interconnect.link(link) if self.interconnect is not None else None
        )
        if ep.kind == "link_down":
            self._note(ep, "chaos.drop", link_obj)
            return MessagePlan(drop=True, kinds=plan.kinds + ("chaos.link_down",))
        if self._chaos_stream(tag).random() < ep.severity:
            self._note(ep, "chaos.drop", link_obj)
            return MessagePlan(drop=True, kinds=plan.kinds + ("chaos.degraded",))
        return plan

    def link_transfer_delay(self, link) -> int:
        """Episode-dependent extra cycles for a transfer about to enter
        ``link`` (consulted by the interconnect).  A downed link stalls
        the payload to the end of the outage plus the worst-case jitter;
        a degraded link adds jitter with probability = severity."""
        now = self.engine.now
        ep = self.timeline.link_episode(link.name, now)
        if ep is None:
            return 0
        if ep.kind == "link_down":
            self._note(ep, "chaos.stall", link)
            return (ep.end - now) + self.config.delay_max
        rng = self._chaos_stream(f"xfer:{link.name}")
        # Fixed two draws per query keeps this stream's alignment
        # independent of the severity comparison's outcome.
        r = rng.random()
        jitter = rng.randint(1, max(1, self.config.delay_max // 2))
        if r < ep.severity:
            self._note(ep, "chaos.jitter", link)
            return jitter
        return 0

    def walker_stall(self, tag: str) -> int:
        stall = super().walker_stall(tag)
        site = tag.split(".", 1)[0]
        ep = self.timeline.gpu_episode(site, "walker_stall_storm", self.engine.now)
        if ep is not None and self._chaos_stream(tag).random() < ep.severity:
            self._note(ep, "chaos.walker_stall")
            stall += self.config.walker_stall_cycles
        return stall

    def irmb_pressure(self, tag: str) -> bool:
        forced = super().irmb_pressure(tag)
        site = tag.split(".", 1)[0]
        ep = self.timeline.gpu_episode(site, "irmb_wave", self.engine.now)
        if ep is not None and self._chaos_stream(tag).random() < ep.severity:
            self._note(ep, "chaos.irmb_evict")
            forced = True
        return forced

    # -- accounting ---------------------------------------------------------

    def injected_total(self) -> int:
        return super().injected_total() + sum(
            self.stats.counter(f"injected.{kind}").value
            for kind in CHAOS_FAULT_KINDS
        )

    def chaos_injected_total(self) -> int:
        return sum(
            self.stats.counter(f"injected.{kind}").value
            for kind in CHAOS_FAULT_KINDS
        )

    def summary(self) -> str:
        parts = [
            f"{kind.split('.', 1)[1]}={self.stats.counter(f'injected.{kind}').value}"
            for kind in CHAOS_FAULT_KINDS
        ]
        return super().summary() + "; chaos: " + ", ".join(parts)


#: driver counters whose per-episode deltas quantify recovery effort.
_DRIVER_DELTA_COUNTERS = (
    "inval_retries", "inval_timeouts", "inval_abandoned", "inval_degraded",
)


class ChaosController:
    """Campaign supervisor: per-episode bookkeeping and recovery metrics.

    Episode *effects* need no controller (activity is query-time); the
    controller samples the system so each episode gets a report:

    * baseline protocol counters at episode start, deltas at recovery —
      how many retries/timeouts/degradations the episode cost;
    * ``time_to_recover``: cycles from episode end until the protocol
      drained (no pending invalidations, no open migration gates),
      quantised to the poll cadence;
    * watchdog near-misses: polls where the forward-progress metric had
      been flat for at least half the watchdog stall window;
    * a residency audit at episode close (violations counted, run
      recorded in ``system.audits_run``).
    """

    def __init__(self, system, timeline: FaultTimeline) -> None:
        self.system = system
        self.engine = system.engine
        self.timeline = timeline
        self._cursor = 0
        #: eid -> open record ({"episode", "baseline", "near_misses",
        #: "max_stall"}); closed records move to ``_reports``.
        self._open: Dict[int, dict] = {}
        self._reports: List[dict] = []
        self._skipped = 0
        self._last_progress: Optional[int] = None
        self._last_change = 0
        self._finalized = False

    # -- sampling -----------------------------------------------------------

    def _sample(self) -> Dict[str, int]:
        driver = self.system.driver
        sample = {
            name: driver.stats.counter(name).value
            for name in _DRIVER_DELTA_COUNTERS
        }
        sample["inval_duplicates"] = sum(
            gpu.stats.counter("inval_received.duplicate").value
            for gpu in self.system.gpus
        )
        return sample

    def _recovered(self) -> bool:
        driver = self.system.driver
        return not (driver._gates or driver._migrating or driver.tracker.has_pending())

    # -- the wake loop ------------------------------------------------------

    def _next_wake(self, now: int) -> Optional[int]:
        eps = self.timeline.episodes
        cands = []
        if self._cursor < len(eps):
            cands.append(eps[self._cursor].start)
        for rec in self._open.values():
            if rec["episode"].end > now:
                cands.append(rec["episode"].end)
        if self._open:
            cands.append((now // RECOVERY_POLL + 1) * RECOVERY_POLL)
        cands = [c for c in cands if c > now]
        return min(cands) if cands else None

    def _on_wake(self) -> None:
        now = self.engine.now
        eps = self.timeline.episodes
        # Open records for episodes that have started.
        while self._cursor < len(eps) and eps[self._cursor].start <= now:
            ep = eps[self._cursor]
            self._cursor += 1
            self._open[ep.eid] = {
                "episode": ep,
                "baseline": self._sample(),
                "near_misses": 0,
                "max_stall": 0,
            }
            if self.engine.tracer.enabled:
                self.engine.tracer.emit(
                    "chaos.episode.start", "chaos",
                    eid=ep.eid, kind=ep.kind, target=ep.target,
                )
        # Forward-progress tracking for the near-miss metric.  Only
        # accrued while the workload is live: a retired workload is
        # legitimately flat, not wedged.
        progress = self.system._progress_metric()
        if self._last_progress is None or progress != self._last_progress:
            self._last_progress = progress
            self._last_change = now
        if self.system.still_active():
            stall = now - self._last_change
            threshold = self.system.config.faults.watchdog_stall_window // 2
            for eid in sorted(self._open):
                rec = self._open[eid]
                if stall > rec["max_stall"]:
                    rec["max_stall"] = stall
                if stall >= threshold:
                    rec["near_misses"] += 1
        # Close records whose episode has ended once the protocol drains.
        if self._recovered():
            for eid in sorted(self._open):
                if self._open[eid]["episode"].end <= now:
                    self._close(eid, recovered_at=now)

    def _close(self, eid: int, recovered_at: Optional[int]) -> None:
        rec = self._open.pop(eid)
        ep = rec["episode"]
        sample = self._sample()
        deltas = {
            name: sample[name] - rec["baseline"][name] for name in sample
        }
        injector = self.system.injector
        injected = (
            injector.episode_stats(eid)
            if isinstance(injector, ScheduledFaultInjector)
            else {}
        )
        from .auditor import audit_system

        violations = audit_system(self.system)
        self.system.audits_run += 1
        report = {
            "eid": ep.eid,
            "kind": ep.kind,
            "target": ep.target,
            "start": ep.start,
            "end": ep.end,
            "severity": ep.severity,
            "recovered": recovered_at is not None,
            "recovered_at": recovered_at,
            "time_to_recover": (
                max(0, recovered_at - ep.end) if recovered_at is not None else None
            ),
            "injected": injected,
            "deltas": deltas,
            "near_misses": rec["near_misses"],
            "max_stall": rec["max_stall"],
            "audit_violations": len(violations),
        }
        self._reports.append(report)
        if self.engine.tracer.enabled:
            self.engine.tracer.emit(
                "chaos.episode.close", "chaos",
                eid=ep.eid, recovered=report["recovered"],
                ttr=report["time_to_recover"],
            )

    def start(self) -> None:
        """The first wake runs from the ready-queue entry this makes."""
        self.engine.schedule(0, self.tick)

    def tick(self) -> None:
        """One wake: bookkeeping, then the next wake, unless the campaign
        is over."""
        self._on_wake()
        if not self.system.still_active() and not self._open:
            self.finalize()
            return
        nxt = self._next_wake(self.engine.now)
        if nxt is None:
            self.finalize()
            return
        self.engine.defer(nxt - self.engine.now, self.tick)

    # -- campaign finish ----------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once the campaign is closed out (no further polls)."""
        return self._finalized

    def finalize(self) -> None:
        """Close out the campaign: straggler records are closed (recovered
        if the protocol is drained *now* — the run just ended at this
        instant — unrecovered otherwise, e.g. an aborted run), episodes
        the run never reached are counted as skipped.  Idempotent; also
        called from ``MultiGPUSystem._finish`` so a run that completes
        between polls still closes its last records."""
        if self._finalized:
            return
        self._finalized = True
        now = self.engine.now
        for eid in sorted(self._open):
            ep = self._open[eid]["episode"]
            ok = now >= ep.end and self._recovered()
            self._close(eid, recovered_at=now if ok else None)
        self._skipped += len(self.timeline.episodes) - self._cursor
        self._cursor = len(self.timeline.episodes)

    def report(self) -> dict:
        """Campaign-level summary over all closed episode records."""
        episodes = list(self._reports)
        recovered = [r for r in episodes if r["recovered"]]
        ttrs = [r["time_to_recover"] for r in recovered]
        injector = self.system.injector
        return {
            "episodes_total": len(self.timeline.episodes),
            "episodes_run": len(episodes),
            "episodes_skipped": self._skipped,
            "episodes_recovered": len(recovered),
            "time_to_recover_mean": (
                sum(ttrs) / len(ttrs) if ttrs else 0.0
            ),
            "time_to_recover_max": max(ttrs) if ttrs else 0,
            "watchdog_near_misses": sum(r["near_misses"] for r in episodes),
            "audit_violations": sum(r["audit_violations"] for r in episodes),
            "faults_injected": (
                injector.chaos_injected_total()
                if isinstance(injector, ScheduledFaultInjector)
                else 0
            ),
            "episodes": episodes,
        }
