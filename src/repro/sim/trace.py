"""Deterministic event tracing for the simulation kernel.

Every hardware model in this package can emit *typed trace records*
describing what it did and when: TLB hits and shootdowns, page-walk
lifecycles, IRMB merges and writebacks, directory-filtered invalidation
round trips, migration decisions.  Records land in a
:class:`TraceRecorder` — a bounded ring buffer attached to the
:class:`~repro.sim.engine.Engine` — and can be exported as JSON-lines or
as Chrome ``trace_event`` JSON (see :mod:`repro.metrics.trace_export`).

Because the engine is deterministic, the full record stream is a pure
function of (config, workload, seed): two runs with identical inputs
produce byte-identical traces.  The golden-trace harness under
``tests/golden/`` pins this property down and turns any behavioural
drift in the translation pipeline into a test failure at the event
level, not just in aggregate counters.

Tracing is **off by default**.  Components hold a tracer reference that
defaults to :data:`NULL_TRACER` (``enabled == False``) and guard every
emission site with ``if tracer.enabled:``, so the disabled-path cost is
one attribute load and a branch — no record construction, no allocation.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator, List, Optional, Tuple

__all__ = ["TraceRecord", "TraceRecorder", "NullTracer", "NULL_TRACER"]


class TraceRecord:
    """One simulation event.

    Fixed fields (always present, in canonical order):

    ``seq``
        Global emission index — strictly increasing, so same-cycle
        events keep their engine ordering.
    ``cycle``
        Engine time at emission.
    ``event``
        Dotted event name, ``<subsystem>.<action>`` (e.g. ``tlb.hit``,
        ``walk.done``, ``irmb.evict``).  The full vocabulary is listed
        in DESIGN.md.
    ``unit``
        The emitting component's instance name (e.g. ``gpu0.l2tlb``).
    ``vpn``
        Virtual page number the event concerns, or ``None``.
    ``fields``
        Event-specific extras as an ordered ``(key, value)`` tuple.
    """

    __slots__ = ("seq", "cycle", "event", "unit", "vpn", "fields")

    def __init__(
        self,
        seq: int,
        cycle: int,
        event: str,
        unit: str,
        vpn: Optional[int],
        fields: Tuple[Tuple[str, Any], ...],
    ) -> None:
        self.seq = seq
        self.cycle = cycle
        self.event = event
        self.unit = unit
        self.vpn = vpn
        self.fields = fields

    def to_line(self) -> str:
        """Canonical single-line rendering (the golden-trace format).

        Hand-rolled rather than ``json.dumps`` so the byte layout is
        pinned by this module, not by stdlib formatting choices; the
        output is nonetheless valid JSON.
        """
        parts = [
            f'"seq":{self.seq}',
            f'"cycle":{self.cycle}',
            f'"event":"{self.event}"',
            f'"unit":"{self.unit}"',
        ]
        if self.vpn is not None:
            parts.append(f'"vpn":{self.vpn}')
        for key, value in self.fields:
            if isinstance(value, bool):
                parts.append(f'"{key}":{"true" if value else "false"}')
            elif isinstance(value, int):
                parts.append(f'"{key}":{value}')
            elif isinstance(value, (list, tuple)):
                inner = ",".join(str(int(v)) for v in value)
                parts.append(f'"{key}":[{inner}]')
            else:
                parts.append(f'"{key}":"{value}"')
        return "{" + ",".join(parts) + "}"

    def __repr__(self) -> str:
        return f"TraceRecord({self.to_line()})"


class TraceRecorder:
    """Ring buffer of :class:`TraceRecord`; the live tracer.

    ``capacity`` bounds memory: once full, the oldest records are
    dropped (``dropped`` counts them) — golden scenarios are small
    enough that nothing drops, while long experiment runs keep a
    recent-history window instead of growing without bound.
    """

    #: emission guard checked by every instrumentation point.
    enabled = True

    def __init__(self, capacity: Optional[int] = 1_000_000) -> None:
        self.capacity = capacity
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        self._engine = None

    def bind(self, engine) -> None:
        """Attach to the engine whose clock stamps the records."""
        self._engine = engine

    @property
    def now(self) -> int:
        return self._engine.now if self._engine is not None else 0

    def __len__(self) -> int:
        return len(self._records)

    def emit(self, event: str, unit: str, vpn: Optional[int] = None, **fields: Any) -> None:
        """Record one event at the current engine cycle."""
        if self.capacity is not None and len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(
            TraceRecord(self._seq, self.now, event, unit, vpn, tuple(fields.items()))
        )
        self._seq += 1

    def records(self) -> List[TraceRecord]:
        return list(self._records)

    def lines(self) -> Iterator[str]:
        """Canonical JSONL rendering of every buffered record."""
        for record in self._records:
            yield record.to_line()

    def clear(self) -> None:
        self._records.clear()
        self._seq = 0
        self.dropped = 0


class NullTracer:
    """Disabled tracer: every emission site sees ``enabled == False``."""

    enabled = False

    def emit(self, event: str, unit: str, vpn: Optional[int] = None, **fields: Any) -> None:
        """No-op (never reached by guarded call sites)."""

    def __len__(self) -> int:
        return 0


#: process-wide disabled tracer; the default everywhere.
NULL_TRACER = NullTracer()
