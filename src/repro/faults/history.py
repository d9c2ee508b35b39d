"""Per-VPN protocol message history: the `repro chaos dump` backend.

The ROADMAP's residual stale-translation window (a TLB entry carrying a
remote-marker mapping that outlives a migration under heavy uniform
drop/duplicate/reorder) needs exactly one diagnostic: *the full message
history of the first audit-violating VPN* — every mapping update,
invalidation, ack, retry, and fault-layer event that touched the page,
with the shootdown protocol's sequence numbers, in engine order.

:class:`ProtocolHistory` is a :class:`~repro.sim.trace.TraceRecorder`
that additionally indexes protocol-relevant records by VPN into bounded
per-page deques.  It reuses the *existing* emission sites — no new
``tracer.emit`` calls appear anywhere (golden traces are byte-compared,
so adding sites on traced paths is forbidden); the cost is one prefix
check per record on top of normal recording.  Attaching any live
tracer makes the run take the fully-traced event path — acceptable for
a diagnostic run, and required anyway: the fast path cannot reproduce
message-level interleavings.

The protocol event vocabulary indexed here (all pre-existing):

* ``inval.send / retry / ack / timeout / abandon / dedup / degrade /
  recover`` — the sequence-numbered invalidation protocol (``iseq``);
* ``mig.start / mig.done`` — page migrations (the mapping updates);
* ``fault.raise / resolve / stale_install / inject`` — fault handling
  and the injector's tampering (drop/duplicate/reorder verdicts);
* ``dir.set / lookup / clear`` — directory state transitions;
* ``lazy.accept / cancel`` and ``irmb.bypass`` — IRMB interactions.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from ..sim.trace import TraceRecord, TraceRecorder

__all__ = [
    "PROTOCOL_PREFIXES",
    "ProtocolHistory",
    "first_violating_vpn",
    "format_history",
]

#: dotted-event prefixes that constitute the translation protocol.
PROTOCOL_PREFIXES = ("inval.", "mig.", "fault.", "dir.", "lazy.", "irmb.")

#: violation messages render pages as ``vpn=0x...`` (see auditor.py).
_VPN_RE = re.compile(r"vpn=(0x[0-9a-fA-F]+)")


class ProtocolHistory(TraceRecorder):
    """Tracer that keeps a bounded per-VPN protocol message history.

    ``per_vpn`` bounds each page's deque (oldest dropped first), so a
    hot page cannot blow up memory while cold pages keep their full
    story.  The global ring buffer behaves exactly like the base
    recorder — exports and checkpoints are unaffected.
    """

    def __init__(
        self,
        capacity: Optional[int] = 1_000_000,
        *,
        per_vpn: int = 2048,
    ) -> None:
        super().__init__(capacity=capacity)
        self.per_vpn = per_vpn
        self._by_vpn: Dict[int, Deque[TraceRecord]] = {}

    def emit(self, event, unit, vpn=None, **fields) -> None:
        super().emit(event, unit, vpn, **fields)
        if vpn is not None and event.startswith(PROTOCOL_PREFIXES):
            bucket = self._by_vpn.get(vpn)
            if bucket is None:
                bucket = self._by_vpn[vpn] = deque(maxlen=self.per_vpn)
            bucket.append(self._records[-1])

    def vpns(self) -> List[int]:
        """Every page with protocol history, ascending."""
        return sorted(self._by_vpn)

    def history(self, vpn: int) -> List[TraceRecord]:
        """The page's protocol records in emission (engine) order."""
        return list(self._by_vpn.get(vpn, ()))

    def clear(self) -> None:
        super().clear()
        self._by_vpn.clear()


def first_violating_vpn(violations: Sequence[str]) -> Optional[int]:
    """The first page named in an auditor violation list, or None.

    Violation strings carry ``vpn=0x...`` (one or more per line — e.g.
    a host-PTE/residency mismatch names both pages); the *first* match
    of the *first* violation is the page the audit tripped on.
    """
    for violation in violations:
        match = _VPN_RE.search(violation)
        if match:
            return int(match.group(1), 16)
    return None


def format_history(history: ProtocolHistory, vpn: int) -> str:
    """Render one page's message history as an aligned text table.

    Columns: cycle, global seq, event, emitting unit, then the event's
    own fields (``iseq=`` sequence numbers prominent by construction —
    they lead most invalidation records).
    """
    records = history.history(vpn)
    lines = [
        f"=== protocol history for vpn={vpn:#x} "
        f"({len(records)} record(s)"
        + (", oldest dropped" if len(records) == history.per_vpn else "")
        + ") ==="
    ]
    if not records:
        lines.append(
            "(no protocol messages touched this page; if the run used "
            "the fast path, re-run under `repro chaos dump` which "
            "forces the traced event path)"
        )
        return "\n".join(lines)
    rows = []
    for rec in records:
        extras = " ".join(f"{k}={v}" for k, v in rec.fields)
        rows.append((str(rec.cycle), str(rec.seq), rec.event, rec.unit, extras))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    header = ("cycle", "seq", "event", "unit", "fields")
    widths = [max(w, len(h)) for w, h in zip(widths, header[:4])]
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(header[:4], widths)) + "  fields"
    )
    for row in rows:
        lines.append(
            "  ".join(col.ljust(w) for col, w in zip(row[:4], widths))
            + ("  " + row[4] if row[4] else "")
        )
    return "\n".join(lines)
