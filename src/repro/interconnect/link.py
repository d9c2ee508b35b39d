"""Point-to-point link with propagation latency and serialisation.

Bandwidth is modelled as exclusive occupancy of the link for the
serialisation time of a payload; propagation latency is pipelined (the
link is free again while bits are in flight).  Control messages (an
invalidation request, a fault interrupt) are a fixed small payload;
page transfers occupy the link for ``page_size / bandwidth``.
"""

from __future__ import annotations

import heapq

from ..sim.engine import Engine, Event
from ..sim.process import Resource
from ..sim.stats import StatsGroup

__all__ = ["Link", "CONTROL_MESSAGE_BYTES"]

_heappush = heapq.heappush

#: size charged for control messages (request/ack packets).
CONTROL_MESSAGE_BYTES = 64


class _FastTransfer(Event):
    """Flattened transfer state machine, and the event that fires once
    the payload has fully arrived at the far end.

    An exact mirror of the generator a :class:`~repro.sim.engine.Process`
    would run for one transfer (hold ``extra_delay``, take the port,
    serialise, release, propagate): every ready-queue append and every
    heap push (and therefore every sequence-number allocation) happens
    at the same point in the same order, so the event calendar — and
    with it every golden trace — is bit-for-bit identical.  What it
    drops is the per-transfer Process object, generator frame, and the
    resume/callback indirection around each hop, which is most of a
    transfer's simulation cost.
    """

    __slots__ = ("link", "num_bytes", "t0")

    def __init__(self, link: "Link", num_bytes: int, extra_delay: int = 0) -> None:
        # Flattened Event.__init__: one transfer per control message,
        # data reply and page move.
        self.engine = link.engine
        self._callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self.link = link
        self.num_bytes = num_bytes
        self.t0 = 0
        # Mirrors Process.__init__'s ready append (process start).
        if extra_delay:
            link.engine._ready.append((self._hold, (extra_delay,)))
        else:
            link.engine._ready.append((self._begin, ()))

    def _hold(self, extra_delay: int) -> None:
        # A delayed packet (fault injector, chaos): counted on the first
        # step, then held ``extra_delay`` cycles before it contends for
        # the port.
        link = self.link
        link.stats.counter("delayed_transfers").add()
        link.engine.defer(extra_delay, self._begin)

    def _begin(self) -> None:
        # Mirrors the generator's first resume: t0, then port.request().
        link = self.link
        engine = link.engine
        self.t0 = engine._now
        port = link._port
        if port._in_use < port.capacity:
            # request() succeeded immediately; the Process would attach
            # its wait callback to the already-triggered event, which
            # defers one ready hop.
            port._in_use += 1
            engine._ready.append((self._granted, (None,)))
        else:
            ev = Event(engine)
            ev.add_callback(self._granted)
            port._waiters.append(ev)

    def _granted(self, _ev) -> None:
        # Mirrors `yield serialisation_cycles` (always > 0): the bare-int
        # fast path pushes straight onto the heap.
        engine = self.link.engine
        engine._seq += 1
        _heappush(
            engine._heap,
            (engine._now + self.link.serialisation_cycles(self.num_bytes),
             engine._seq, self._serialised, ()),
        )

    def _serialised(self) -> None:
        link = self.link
        engine = link.engine
        link._port.release()
        latency = link.latency
        if latency > 0:
            # Mirrors `yield latency`.
            engine._seq += 1
            _heappush(
                engine._heap,
                (engine._now + latency, engine._seq, self._arrive, ()),
            )
        else:
            # Mirrors `yield engine.timeout(0)`: Timeout(0) defers through
            # the ready queue twice (the _fire hop, then the wait callback).
            engine._ready.append((self._latency0_fire, ()))

    def _latency0_fire(self) -> None:
        self.link.engine._ready.append((self._arrive, ()))

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
        "engine", "bandwidth_gbps", "latency", "clock_ghz", "stats", "_port",
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
        self._port = Resource(engine, 1)
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
        if self._port._in_use or self._port._waiters:
            raise RuntimeError("link snapshot with a transfer in flight")
        return {"stats": self.stats.snapshot()}

    def restore(self, state: dict) -> None:
        self.stats.restore(state["stats"])

    def send_control(self) -> Event:
        """Transfer of one small control packet."""
        return self.transfer(CONTROL_MESSAGE_BYTES)
