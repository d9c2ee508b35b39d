"""Batched fast-path replay: the second tier of the two-tier replay core.

The event engine (tier one) is exact but pays generator/heap machinery
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

The replay kernel (:meth:`FastPath._replay`) is a per-access Python
loop over the trace columns.  Bites are short — the merge discipline in
:meth:`FastPath.try_batch` cuts each one at the runner-up lane's next
issue — so per-call overhead, not per-access arithmetic, sets its cost.

Parking protocol
----------------
A lane parks by yielding an Event obtained from :meth:`FastPath.park`.
While parked it owns **no calendar entries** except window-release
timeouts that were already scheduled before parking; its in-flight
window is modelled by a ring of release times (at most ``capacity``
deep).  The engine's :attr:`~repro.sim.engine.Engine.batcher` hook calls
:meth:`FastPath.try_batch` whenever the ready queue is empty — i.e.
*between every two calendar events* — and replay is bounded by the next
calendar event's timestamp.

Parking is gated per GPU: a lane parks while its own GPU's
``driver_busy`` gauge is zero (no fault it raised, no invalidation
targeting it, no migration it is an endpoint of) and is unparked the
round after the gauge rises, so pure-replay GPUs keep batching while
another GPU migrates.

Unparking succeeds the park event with ``(index, arrival)``.  The lane
generator resumes at the current (earlier or equal) engine time and
re-derives the exact issue time of the escaping access through the
normal ``yield wait; yield window.request()`` sequence — release events
for window slots the replay consumed arithmetically are materialised
onto the calendar first, so the FIFO grant reproduces ``issue_i``
exactly.

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

from collections import deque
from typing import Dict, Set

from ..memory import pte as pte_bits
from ..memory.physmem import PhysicalMemory
from ..sim.engine import Engine, Event

__all__ = ["FastPath", "ParkedLane"]

_INF = float("inf")


class ParkedLane:
    """Replay state for one parked lane."""

    __slots__ = ("lane", "event", "index", "arrival", "ring", "backed", "gen")

    def __init__(self, lane, event: Event, index: int, arrival: int,
                 ring: deque, backed: int, gen: int) -> None:
        self.lane = lane
        self.event = event
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
        #: id() of every parked lane's window Resource — identifies
        #: calendar entries (window.release bound methods) that are
        #: benign to consume mid-replay.
        self._parked_windows: Set[int] = set()
        # Visibility counters (plain ints, deliberately *not* StatsGroup
        # members: fast-path bookkeeping must never appear in collected
        # results, which are asserted equal to event-path results).
        self.replayed = 0
        self.parks = 0
        # Select the batched drain loop; the hook itself is installed
        # only while lanes are parked (see park/_unpark), so runs with no
        # parking pay one None check per event.
        engine.batch_mode = True

    # ------------------------------------------------------------------
    # Park / unpark
    # ------------------------------------------------------------------

    def park(self, lane, index: int) -> Event:
        """Park ``lane`` before issuing access ``index``; returns the
        event whose value ``(index, arrival)`` resumes the lane.

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
            Event(engine),
            index,
            engine._now + lane._gaps[index],
            deque(releases),
            len(releases),
            gpu.inval_generation,
        )
        if not self._parked:
            engine.batcher = self.try_batch
        self._parked[lane] = rec
        self._parked_windows.add(id(window))
        self.parks += 1
        return rec.event

    def repark(self, lane, index: int, arrival: int, ring, backed: int) -> Event:
        """Re-register a lane parked at checkpoint time with its saved
        replay state (checkpoint restore).  Unlike :meth:`park` this must
        not recompute ``arrival`` — the saved value already accounts for
        the partially-elapsed gap — nor trim the release ring, which was
        snapshotted verbatim."""
        engine = self.engine
        rec = ParkedLane(
            lane,
            Event(engine),
            index,
            arrival,
            deque(ring),
            backed,
            lane.gpu.inval_generation,
        )
        if not self._parked:
            engine.batcher = self.try_batch
        self._parked[lane] = rec
        self._parked_windows.add(id(lane._window))
        return rec.event

    def _unpark(self, rec: ParkedLane) -> None:
        lane = rec.lane
        window = lane._window
        del self._parked[lane]
        self._parked_windows.discard(id(window))
        engine = self.engine
        if not self._parked:
            engine.batcher = None
        now = engine._now
        ring = rec.ring
        # Materialise release events for window slots the replay filled:
        # every ring entry past the still-calendar-backed prefix that
        # releases in the future.  (Entries <= now correspond to accesses
        # that both issued and completed inside the replayed span.)
        if len(ring) > rec.backed:
            entries = list(ring)
            release = window.release
            schedule = engine.schedule
            for r in entries[rec.backed:]:
                if r > now:
                    window._in_use += 1
                    schedule(r - now, release)
        # In place: the lane's run() loop holds a reference to this deque.
        releases = lane._releases
        releases.clear()
        releases.extend(ring)
        rec.event.succeed((rec.index, rec.arrival))

    def _head_escapes(self, rec: ParkedLane) -> bool:
        """Read-only escape probe of ``rec``'s next access — exactly the
        replay kernel's predicate, with no commit and no LRU touch."""
        lane = rec.lane
        gpu = lane.gpu
        if rec.gen != gpu.inval_generation:
            return True
        vpn = lane._vpns[rec.index]
        sets = gpu.l1_tlbs[lane.lane_id]._sets
        entry_set = sets[0] if len(sets) == 1 else sets[vpn % len(sets)]
        word = entry_set.get(vpn)
        if word is None or PhysicalMemory.owner_of(pte_bits.ppn(word)) != gpu.gpu_id:
            return True
        irmb = gpu.irmb
        if irmb is not None and not irmb.is_empty and irmb.peek(vpn):
            return True
        if (
            vpn in gpu.l1_mshrs[lane.lane_id]._pending
            or vpn in gpu.l2_mshr._pending
        ):
            return True
        gates = self.driver._gates
        return bool(gates) and vpn in gates

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
        while True:
            unparked = False
            # Evict only lanes whose own GPU became busy; the rest keep
            # batching through the episode.
            for rec in list(parked.values()):
                if rec.lane.gpu.driver_busy:
                    self._unpark(rec)
                    unparked = True
            if unparked:
                return True
            bound = heap[0][0] if heap else _INF
            work = 0
            # Merge discipline: commit replayed accesses in globally
            # nondecreasing issue order across all parked lanes.  A
            # parked lane's escape re-enters the event path at its
            # escape arrival and can mutate shared translation state
            # (access-counter migrations, faults, invalidations) that
            # the escape predicate snapshots per bite — so no lane may
            # replay past another parked lane's next issue time.  The
            # calendar bound alone cannot see those future escapes:
            # parked lanes have no heap entries beyond consumed window
            # releases.  Each round picks the lane with the earliest
            # pending issue and replays it up to the runner-up's head
            # (ties advance one issue instant: state mutations from a
            # concurrently-issued slow access always land strictly
            # after its issue time, so same-instant replays are exact).
            head_issue = self._head_issue
            esc_cap = _INF
            while parked:
                best = None
                best_h = _INF
                second = _INF
                for rec in parked.values():
                    h = head_issue(rec)
                    if h < best_h:
                        second = best_h
                        best_h = h
                        best = rec
                    elif h < second:
                        second = h
                if second <= best_h:
                    second = best_h + 1
                cap = bound if bound < second else second
                if esc_cap < cap:
                    cap = esc_cap
                n = self._replay(best, cap)
                work += n
                if best.lane not in parked:
                    unparked = True
                    if best.index < best.lane._n:
                        # Escape (not end-of-trace): the lane re-enters
                        # the event path at ``arrival`` and may mutate
                        # shared state strictly after that instant —
                        # siblings may still commit through it, but not
                        # beyond.  Probing them now (rather than after
                        # the resumed lane runs) also keeps same-instant
                        # escapes unparking in park order, preserving
                        # the event path's sequence numbering.
                        a = best.arrival + 1
                        if a < esc_cap:
                            esc_cap = a
                    continue
                if n == 0:
                    break
            # Discovery pass: escapes must be found (and their resumes
            # scheduled) as early as possible so the resume wake-ups
            # carry sequence numbers close to the ones the event path
            # assigned when the lanes originally blocked — otherwise
            # same-instant wake-ups drain in the wrong order.  Probe
            # every lane still parked against the pass-start bound,
            # read-only: commits above respect the merge caps, the
            # probe only asks "would the head access take the slow
            # path right now?".
            head_escapes = self._head_escapes
            for rec in list(parked.values()):
                if head_issue(rec) < bound and head_escapes(rec):
                    self._unpark(rec)
                    unparked = True
            if unparked:
                # The resumed lane(s) must run before further replay.
                return True
            if heap:
                entry = heap[0]
                owner = getattr(entry[2], "__self__", None)
                if owner is not None and id(owner) in parked_windows:
                    # Next event is a parked lane's own window release —
                    # benign: consume it and keep replaying.
                    engine.run_batch_until(entry[0])
                    continue
            if work:
                continue  # batch-limit chunking: take another bite
            return False

    # ------------------------------------------------------------------
    # The replay kernel
    # ------------------------------------------------------------------

    def _replay(self, rec: ParkedLane, bound) -> int:
        """Replay ``rec``'s lane arithmetically until ``bound``, an
        escape, the batch limit, or end of trace.  Returns the number of
        accesses replayed."""
        lane = rec.lane
        gpu = lane.gpu
        if rec.gen != gpu.inval_generation:
            self._unpark(rec)
            return 0
        gaps = lane._gaps
        vpns = lane._vpns
        n = lane._n
        i = rec.index
        arrival = rec.arrival
        ring = rec.ring
        backed = rec.backed
        capacity = lane._capacity
        fast_latency = gpu._fast_latency
        l1 = gpu.l1_tlbs[lane.lane_id]
        sets = l1._sets
        nsets = len(sets)
        single = sets[0] if nsets == 1 else None
        owner_of = PhysicalMemory.owner_of
        ppn = pte_bits.ppn
        gpu_id = gpu.gpu_id
        irmb = gpu.irmb
        irmb_peek = (
            irmb.peek if irmb is not None and not irmb.is_empty else None
        )
        mshr1 = gpu.l1_mshrs[lane.lane_id]._pending
        mshr2 = gpu.l2_mshr._pending
        gates = self.driver._gates
        ring_pop = ring.popleft
        ring_push = ring.append
        limit = self.batch_limit
        count = 0
        instructions = 0
        escaped = False
        while count < limit:
            if len(ring) >= capacity:
                head = ring[0]
                issue = head if head > arrival else arrival
            else:
                issue = arrival
            if issue >= bound:
                break
            vpn = vpns[i]
            entry_set = single if single is not None else sets[vpn % nsets]
            word = entry_set.get(vpn)
            if (
                word is None
                or owner_of(ppn(word)) != gpu_id
                or (irmb_peek is not None and irmb_peek(vpn))
                or vpn in mshr1
                or vpn in mshr2
                or (gates and vpn in gates)
            ):
                escaped = True
                break
            # Exactly try_fast_access's side effects, in bulk.
            entry_set.move_to_end(vpn)
            if len(ring) >= capacity:
                ring_pop()
                if backed:
                    backed -= 1
            ring_push(issue + fast_latency)
            instructions += gaps[i] + 1
            count += 1
            i += 1
            if i >= n:
                break
            arrival = issue + gaps[i]
        if count:
            gpu.instructions += instructions
            l1._hits.value += count
            gpu._n_local.value += count
            gpu._n_completed.value += count
            self.replayed += count
        rec.index = i
        rec.arrival = arrival
        rec.backed = backed
        if escaped or i >= n:
            self._unpark(rec)
        return count
