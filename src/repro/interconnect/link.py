"""Point-to-point link with propagation latency and serialisation.

Bandwidth is modelled as exclusive occupancy of the link for the
serialisation time of a payload; propagation latency is pipelined (the
link is free again while bits are in flight).  Control messages (an
invalidation request, a fault interrupt) are a fixed small payload;
page transfers occupy the link for ``page_size / bandwidth``.

The port is an analytic FIFO server: it is summarised by the cycle it
next falls idle, so a transfer reserves its serialisation slot when it
joins the queue and costs one calendar entry, at its arrival.
"""

from __future__ import annotations

import heapq

from ..sim.engine import Engine, Event
from ..sim.stats import StatsGroup

__all__ = ["Link", "CONTROL_MESSAGE_BYTES"]

_heappush = heapq.heappush

#: size charged for control messages (request/ack packets).
CONTROL_MESSAGE_BYTES = 64


class _FastTransfer(Event):
    """One transfer, and the event that fires once the payload has fully
    arrived at the far end.

    Joining the port queue reserves the slot ``[start, start +
    serialisation)`` with ``start = max(now, link._free_at)`` and pushes
    the one calendar entry, at ``start + serialisation + latency``.  A
    delayed packet (fault injector, chaos) holds ``extra_delay`` cycles
    first and joins the queue when its hold ends.
    """

    __slots__ = ("link", "num_bytes", "t0")

    def __init__(self, link: "Link", num_bytes: int, extra_delay: int = 0) -> None:
        # Flattened Event.__init__: one transfer per control message,
        # data reply and page move.
        engine = link.engine
        self.engine = engine
        self._callbacks = []
        self._value = None
        self._triggered = False
        self.link = link
        self.num_bytes = num_bytes
        self.t0 = 0
        if extra_delay:
            link.stats.counter("delayed_transfers").add()
            engine.defer(extra_delay, self._enqueue)
        else:
            self._enqueue()

    def _enqueue(self) -> None:
        link = self.link
        engine = link.engine
        now = self.t0 = engine._now
        free_at = link._free_at
        start = now if now >= free_at else free_at
        serialised = link._free_at = start + link.serialisation_cycles(self.num_bytes)
        engine._seq += 1
        _heappush(engine._heap, (serialised + link.latency, engine._seq, self._arrive, ()))

    def _arrive(self) -> None:
        link = self.link
        link._n_transfers.add()
        link._n_bytes.add(self.num_bytes)
        link._t_transfer.record(link.engine._now - self.t0)
        if link.owner is not None:
            link.owner.inflight -= 1
        self.succeed()


class Link:
    """One direction of a link; create two for full duplex."""

    __slots__ = (
        "engine", "bandwidth_gbps", "latency", "clock_ghz", "stats", "_free_at",
        "_n_transfers", "_n_bytes", "_t_transfer", "_ser_cache", "owner",
    )

    def __init__(
        self,
        engine: Engine,
        bandwidth_gbps: float,
        latency: int,
        clock_ghz: float = 1.0,
        name: str = "link",
        owner=None,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.engine = engine
        self.bandwidth_gbps = bandwidth_gbps
        self.latency = latency
        self.clock_ghz = clock_ghz
        self.stats = StatsGroup(name)
        #: the cycle the port next falls idle (its FIFO queue, summarised).
        self._free_at = 0
        # Bound once: these fire on every transfer, and payload sizes come
        # from a tiny set (control packet, cache line, page), so the
        # serialisation maths caches perfectly.
        self._n_transfers = self.stats.counter("transfers")
        self._n_bytes = self.stats.counter("bytes")
        self._t_transfer = self.stats.latency("transfer_time")
        self._ser_cache: dict = {}
        #: optional Interconnect back-reference carrying the system-wide
        #: in-flight transfer gauge the batched fast path consults.
        self.owner = owner

    @property
    def name(self) -> str:
        return self.stats.name

    def note_chaos(self, kind: str) -> None:
        """Count one chaos-episode effect on this link (``chaos.drop``,
        ``chaos.stall``, ``chaos.jitter`` ...) — kept per link so campaign
        reports can attribute injected failures to the episode target."""
        self.stats.counter(f"chaos.{kind}").add()

    def serialisation_cycles(self, num_bytes: int) -> int:
        cycles = self._ser_cache.get(num_bytes)
        if cycles is None:
            cycles = max(1, round(num_bytes / self.bandwidth_gbps * self.clock_ghz))
            self._ser_cache[num_bytes] = cycles
        return cycles

    def transfer(self, num_bytes: int, extra_delay: int = 0) -> Event:
        """Start a transfer; the event fires when the payload has fully
        arrived at the far end.

        ``extra_delay`` holds the message *before* it contends for the
        port — the fault injector's knob for delaying (and, with a large
        enough value, reordering) individual packets on the wire.
        """
        if self.owner is not None:
            self.owner.inflight += 1
        return _FastTransfer(self, num_bytes, extra_delay)

    def snapshot(self) -> dict:
        """Stats only: at a quiescent instant the port is free and no
        payload is on the wire."""
        if self._free_at > self.engine._now:
            raise RuntimeError("link snapshot with a transfer in flight")
        return {"stats": self.stats.snapshot()}

    def restore(self, state: dict) -> None:
        self.stats.restore(state["stats"])

    def send_control(self) -> Event:
        """Transfer of one small control packet."""
        return self.transfer(CONTROL_MESSAGE_BYTES)
