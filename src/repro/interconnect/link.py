"""Point-to-point link with propagation latency and serialisation.

Bandwidth is modelled as exclusive occupancy of the link for the
serialisation time of a payload; propagation latency is pipelined (the
link is free again while bits are in flight).  Control messages (an
invalidation request, a fault interrupt) are a fixed small payload;
page transfers occupy the link for ``page_size / bandwidth``.

The port is an analytic FIFO server: it is summarised by the cycle it
next falls idle, so a transfer reserves its serialisation slot when it
joins the queue and costs one calendar entry, at its arrival.  The
transfer's continuation runs inside that entry.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..sim.engine import Engine
from ..sim.stats import StatsGroup

__all__ = ["Link", "CONTROL_MESSAGE_BYTES"]

_heappush = heapq.heappush

#: size charged for control messages (request/ack packets).
CONTROL_MESSAGE_BYTES = 64


class Link:
    """One direction of a link; create two for full duplex."""

    __slots__ = (
        "engine", "bandwidth_gbps", "latency", "clock_ghz", "stats", "_free_at",
        "_n_transfers", "_n_bytes", "_t_transfer", "_ser_cache",
    )

    def __init__(
        self,
        engine: Engine,
        bandwidth_gbps: float,
        latency: int,
        clock_ghz: float = 1.0,
        name: str = "link",
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

    def transfer(self, num_bytes: int, fn: Callable[..., None], *args: Any,
                 extra_delay: int = 0) -> None:
        """Start a transfer; ``fn(*args)`` runs once the payload has fully
        arrived at the far end.

        ``extra_delay`` holds the message *before* it contends for the
        port — the fault injector's knob for delaying (and, with a large
        enough value, reordering) individual packets on the wire.
        """
        if extra_delay:
            self.stats.counter("delayed_transfers").add()
            self.engine.defer(extra_delay, self._enqueue, num_bytes, fn, args)
        else:
            self._enqueue(num_bytes, fn, args)

    def _enqueue(self, num_bytes: int, fn: Callable[..., None], args: tuple) -> None:
        """Join the port queue: reserve the slot ``[start, start +
        serialisation)`` with ``start = max(now, _free_at)`` and push the
        one calendar entry, at ``start + serialisation + latency``."""
        engine = self.engine
        now = engine._now
        free_at = self._free_at
        start = now if now >= free_at else free_at
        try:
            cycles = self._ser_cache[num_bytes]
        except KeyError:
            cycles = self.serialisation_cycles(num_bytes)
        serialised = self._free_at = start + cycles
        engine._seq += 1
        _heappush(
            engine._heap,
            (serialised + self.latency, engine._seq, self._arrive, (num_bytes, now, fn, args)),
        )

    def _arrive(self, num_bytes: int, t0: int, fn: Callable[..., None], args: tuple) -> None:
        self._n_transfers.value += 1
        self._n_bytes.value += num_bytes
        self._t_transfer.record(self.engine._now - t0)
        # Popped from the calendar, so the ready queue is empty: the
        # continuation is the next callback either way (Engine.tail).
        fn(*args)
