"""Batched fast-path replay: the second tier of the two-tier replay core.

The event engine (tier one) is exact but pays callback/heap machinery
per access.  The overwhelmingly common access, however, is an L1 TLB hit
on a local page, whose behaviour is a pure arithmetic recurrence over
the lane's in-flight window:

    issue_i       = max(arrival_i, ring[0])     (window occupancy)
    release_i     = issue_i + fast_latency
    arrival_{i+1} = issue_i + gap_{i+1}

so a *parked* lane can be replayed in bulk over the columnar
:class:`~repro.workloads.base.TraceBuffer` arrays with no events at all,
escaping back to the event engine the moment an access would miss the
L1, touch a remote or gated page, collide with an MSHR entry or a
pending IRMB invalidation — or the moment the UVM driver starts an
episode touching the lane's GPU.

The replay kernel (:meth:`FastPath._replay_pass`) is one merged pass
over all parked lanes.  A ``heapq`` keyed by (next issue time, park
order) interleaves their trace columns, so accesses commit one at a
time in global issue order — the order the event path would issue
them in — and one call replays every access up to the next calendar
event, however finely the lanes interleave.

Parking protocol
----------------
A lane parks by calling :meth:`FastPath.park` instead of waiting out
its next compute gap.  While parked it owns **no calendar entries**
except window-release timeouts that were already scheduled before
parking; its in-flight window is modelled by a ring of release times
(at most ``capacity`` deep).  The engine's
:attr:`~repro.sim.engine.Engine.batcher` hook calls
:meth:`FastPath.try_batch` whenever the ready queue is empty — i.e.
*between every two calendar events* — and replay is bounded by the next
calendar event's timestamp.

Parking is gated per GPU: a lane parks while its own GPU's
``driver_busy`` gauge is zero (no fault it raised, no invalidation
targeting it, no migration it is an endpoint of) and is unparked the
round after the gauge rises, so pure-replay GPUs keep batching while
another GPU migrates.

Unparking queues the lane's ``_unparked(index, arrival)`` continuation
on the ready queue.  The lane resumes at the current (earlier or equal)
engine time and re-derives the exact issue time of the escaping access
through the normal gap wait and window grant — release events for
window slots the replay consumed arithmetically are materialised onto
the calendar first, so the FIFO grant reproduces ``issue_i`` exactly.

Equivalence argument (summary; DESIGN.md §8 has the full version)
-----------------------------------------------------------------
1. Replay covers exactly the accesses for which ``GPU.try_fast_access``
   would succeed, and applies exactly its side effects (L1 LRU refresh,
   hit counter, local/completed counters, instruction count).
2. Simulator state is piecewise-constant between calendar events, and
   replay stops strictly before the next event's timestamp, so the
   predicate evaluates against precisely the state the event path would
   have seen at each replayed issue time.
3. The state replay reads is the lane's own L1 content, the ownership
   bits baked into each PTE word, and the migration-gate table.  Every
   mutation channel for these (TLB shootdown, gate creation, ownership
   of a fresh word) lives inside a driver episode — fault, migration,
   invalidation — which raises the target GPU's ``driver_busy`` gauge
   synchronously in the episode's first event, so no such mutation can
   fire at a replayed cycle; the moment a gauge rises, the next batcher
   call (which runs before the following event pops) unparks that
   GPU's lanes at the current time.  Third-party migrations are the
   one episode that can overlap replay under per-GPU parking, and
   their only cross-GPU-visible state is the gate table — which the
   replay predicate checks per access.
4. An unparked lane resumes at or before its next issue time and
   continues on the event path, indistinguishable from a lane that
   never parked.

The fast path is constructed only when the tracer is disabled (tracing
auto-degrades to the pure event path, keeping golden traces
byte-identical by construction) and fault injection, page replication
and Trans-FW are off.  ``--no-fastpath`` / ``config.fastpath_enabled``
turn it off explicitly.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from heapq import heapify, heappop, heapreplace
from typing import Dict, Optional, Set, Tuple

from ..memory import pte as pte_bits
from ..memory.physmem import PhysicalMemory
from ..sim.engine import Engine
from ..sim.process import Resource

__all__ = ["FastPath", "ParkedLane"]

_INF = float("inf")


class ParkedLane:
    """Replay state for one parked lane."""

    __slots__ = ("lane", "index", "arrival", "ring", "backed", "gen")

    def __init__(self, lane, index: int, arrival: int,
                 ring: deque, backed: int, gen: int) -> None:
        self.lane = lane
        #: next unevaluated trace index.
        self.index = index
        #: arrival time of access ``index`` (issue of the previous access
        #: plus its gap).
        self.arrival = arrival
        #: release times of in-flight window slots, oldest first.  The
        #: first ``backed`` entries correspond to release events already
        #: on the calendar (scheduled before parking); the rest exist
        #: only arithmetically and are materialised at unpark.
        self.ring = ring
        self.backed = backed
        #: GPU invalidation generation at park time; a mismatch voids
        #: batch eligibility (belt and braces over the gauge check).
        self.gen = gen


class FastPath:
    """Coordinates parked lanes and replays them in bulk."""

    def __init__(self, engine: Engine, config, driver) -> None:
        self.engine = engine
        self.driver = driver
        self.batch_limit = max(1, config.fastpath_batch_limit)
        self._parked: Dict[object, ParkedLane] = {}
        #: every parked lane's window Resource — identifies calendar
        #: entries (window.release bound methods) that are benign to
        #: consume mid-replay.  Held by object, not by ``id()``, so the
        #: set survives a checkpoint's pickle round trip.
        self._parked_windows: Set[Resource] = set()
        # Visibility counters (plain ints, deliberately *not* StatsGroup
        # members: fast-path bookkeeping must never appear in collected
        # results, which are asserted equal to event-path results).
        self.replayed = 0
        self.parks = 0
        self.passes = 0
        # Select the batched drain loop; the hook itself is installed
        # only while lanes are parked (see park/_unpark), so runs with no
        # parking pay one None check per event.
        engine.batch_mode = True

    # ------------------------------------------------------------------
    # Park / unpark
    # ------------------------------------------------------------------

    def park(self, lane, index: int) -> None:
        """Park ``lane`` before issuing access ``index``; the lane
        resumes through its ``_unparked(index, arrival)`` continuation.

        Callers park only while ``lane.gpu.driver_busy`` is zero:
        episodes touching other GPUs cannot mutate state this GPU's
        replay predicate reads except through the gate table, which the
        predicate checks per access."""
        engine = self.engine
        window = lane._window
        releases = lane._releases
        # Entries beyond the window's in-use count have already fired;
        # what remains maps 1:1 onto scheduled release events.
        while len(releases) > window._in_use:
            releases.popleft()
        gpu = lane.gpu
        rec = ParkedLane(
            lane,
            index,
            engine._now + lane._gaps[index],
            deque(releases),
            len(releases),
            gpu.inval_generation,
        )
        if not self._parked:
            engine.batcher = self.try_batch
        self._parked[lane] = rec
        self._parked_windows.add(window)
        self.parks += 1

    def _unpark(self, rec: ParkedLane) -> None:
        lane = rec.lane
        window = lane._window
        del self._parked[lane]
        self._parked_windows.discard(window)
        engine = self.engine
        if not self._parked:
            engine.batcher = None
        # Release events for the window slots the replay filled.
        lane._materialise(rec.ring, rec.backed)
        engine._ready.append((lane._unparked, (rec.index, rec.arrival)))

    def _replayable(self, rec: ParkedLane, vpn: int) -> Optional[OrderedDict]:
        """``try_fast_access``'s acceptance test for an access by
        ``rec``'s lane to ``vpn``, read-only: the L1 set holding
        ``vpn`` when the access may be replayed now, else None (the
        access escapes to the event path)."""
        lane = rec.lane
        gpu = lane.gpu
        if rec.gen != gpu.inval_generation:
            return None
        sets = gpu.l1_tlbs[lane.lane_id]._sets
        entry_set = sets[vpn % len(sets)]
        word = entry_set.get(vpn)
        if word is None or PhysicalMemory.owner_of(pte_bits.ppn(word)) != gpu.gpu_id:
            return None
        irmb = gpu.irmb
        if irmb is not None and not irmb.is_empty and irmb.peek(vpn):
            return None
        if (
            vpn in gpu.l1_mshrs[lane.lane_id]._pending
            or vpn in gpu.l2_mshr._pending
        ):
            return None
        gates = self.driver._gates
        if gates and vpn in gates:
            return None
        return entry_set

    @staticmethod
    def _head_issue(rec: ParkedLane) -> int:
        """Issue time of ``rec``'s next replayable access: its arrival,
        delayed by the in-flight window when the window is full."""
        ring = rec.ring
        if len(ring) >= rec.lane._capacity:
            head = ring[0]
            if head > rec.arrival:
                return head
        return rec.arrival

    # ------------------------------------------------------------------
    # The batcher
    # ------------------------------------------------------------------

    def try_batch(self) -> bool:
        """Engine hook: replay parked lanes up to the next calendar
        event.  Returns True when ready-queue work may have been created
        (an unpark), so the engine re-drains before popping the heap."""
        parked = self._parked
        if not parked:
            return False
        engine = self.engine
        heap = engine._heap
        parked_windows = self._parked_windows
        cap = None
        unparked = False
        while True:
            # Evict only lanes whose own GPU became busy; the rest keep
            # batching through the episode.
            busy = [rec for rec in parked.values() if rec.lane.gpu.driver_busy]
            for rec in busy:
                self._unpark(rec)
            if busy:
                return True
            if cap is None:
                bound = cap = heap[0][0] if heap else _INF
            # Lanes may park inside run_batch_until below, but never
            # during a pass (no event runs there): a smaller count after
            # the pass means it unparked a lane.
            waiting = len(parked)
            commits, cap = self._replay_pass(cap)
            if len(parked) < waiting:
                unparked = True
            if commits >= self.batch_limit:
                # Limit cut: the pass is not finished.  The next one
                # resumes under the same bound and escape cap; the
                # discovery probe and the window-release consumption
                # below wait for a pass that ends on its own, because
                # consuming a release now would move the clock past
                # accesses not yet committed.
                continue
            if unparked:
                # Discovery: escapes must be found (and their resumes
                # scheduled) as early as possible so the resume wake-ups
                # carry sequence numbers close to the ones the event path
                # assigned when the lanes originally blocked — otherwise
                # same-instant wake-ups drain in the wrong order.  Probe
                # every lane still parked against the pass-start bound,
                # read-only: commits respect the escape cap, the probe
                # only asks "would the head access take the slow path
                # right now?".  The resumed lanes must run before
                # further replay.
                for rec in list(parked.values()):
                    if (
                        self._head_issue(rec) < bound
                        and self._replayable(rec, rec.lane._vpns[rec.index]) is None
                    ):
                        self._unpark(rec)
                return True
            if heap:
                entry = heap[0]
                if getattr(entry[2], "__self__", None) in parked_windows:
                    # Next event is a parked lane's own window release —
                    # benign: consume it and keep replaying.
                    engine.run_batch_until(entry[0])
                    cap = None
                    continue
            return False

    # ------------------------------------------------------------------
    # The replay kernel
    # ------------------------------------------------------------------

    def _replay_pass(self, cap: float) -> Tuple[int, float]:
        """One merged pass over every parked lane: commit replayable
        accesses in global (issue time, park order) order while they
        issue before ``cap``, for at most ``batch_limit`` commits.

        The order matters because the calendar bound cannot see a parked
        lane's coming escape: the lane holds no calendar entry for it,
        and once back on the event path its slow access can change
        shared translation state (access-counter migrations, faults,
        invalidations) that the other lanes' predicate reads.  A lane
        that escapes (or whose invalidation generation moved) is
        unparked when it reaches the queue head, and ``cap`` drops to its
        arrival + 1: the lane re-enters the event path at ``arrival``
        and may mutate shared translation state strictly after that
        instant, so siblings may commit through it but not beyond.

        Each lane's ``index``, ``arrival`` and ``backed`` are kept in its
        :class:`ParkedLane` as they advance, and its counters are added
        before it is unparked and before the pass returns, because
        :meth:`_unpark` and checkpoints read them.  Returns
        ``(commits, cap)``."""
        self.passes += 1
        queue = []
        for order, rec in enumerate(self._parked.values()):
            issue = self._head_issue(rec)
            if issue < cap:
                lane = rec.lane
                queue.append((issue, order, rec, (
                    rec.index, {}, lane._vpns, lane._gaps, lane._n, rec.ring,
                    lane._capacity, lane.gpu._fast_latency,
                )))
        heapify(queue)
        limit = self.batch_limit
        commits = 0
        while queue and commits < limit:
            issue, order, rec, state = queue[0]
            if issue >= cap:
                break
            start, accepted, vpns, gaps, n, ring, capacity, fast_latency = state
            i = rec.index
            vpn = vpns[i]
            # No event runs inside a pass, so the predicate's verdict on
            # a page holds for the whole pass: ``accepted`` maps each page
            # it has passed to its L1 set.
            entry_set = accepted.get(vpn)
            if entry_set is None:
                entry_set = self._replayable(rec, vpn)
                if entry_set is None:
                    heappop(queue)
                    self._retire(rec, start)
                    self._unpark(rec)
                    if rec.arrival + 1 < cap:
                        cap = rec.arrival + 1
                    continue
                accepted[vpn] = entry_set
            # Exactly try_fast_access's side effects; the counters are
            # added per lane by _retire.
            entry_set.move_to_end(vpn)
            if len(ring) >= capacity:
                ring.popleft()
                if rec.backed:
                    rec.backed -= 1
            ring.append(issue + fast_latency)
            commits += 1
            i += 1
            rec.index = i
            if i >= n:
                heappop(queue)
                self._retire(rec, start)
                self._unpark(rec)
                continue
            arrival = issue + gaps[i]
            rec.arrival = arrival
            issue = arrival
            if len(ring) >= capacity and ring[0] > arrival:
                issue = ring[0]
            heapreplace(queue, (issue, order, rec, state))
        for _issue, _order, rec, state in queue:
            self._retire(rec, state[0])
        return commits, cap

    def _retire(self, rec: ParkedLane, start: int) -> None:
        """Add the counters of ``rec``'s accesses replayed this pass —
        trace indices ``start`` to ``rec.index`` — to its GPU and L1."""
        count = rec.index - start
        if count:
            lane = rec.lane
            gpu = lane.gpu
            gpu.instructions += sum(lane._gaps[start:rec.index]) + count
            gpu.l1_tlbs[lane.lane_id]._hits.value += count
            gpu._n_local.value += count
            gpu._n_completed.value += count
            self.replayed += count
