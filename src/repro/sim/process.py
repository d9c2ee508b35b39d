"""Synchronisation primitives built on the event kernel.

These mirror the queueing structures found in the modelled hardware:

* :class:`Resource` — a counted server pool (host page-table walkers,
  fault-batch service slots, a lane's in-flight window).  Requests
  queue FIFO.
* :class:`Store` — an unbounded FIFO of items (the driver's fault
  queue).
* :class:`Gate` — a barrier that holds waiters until it opens (pages
  blocked during migration).
* :class:`Countdown` — a join: the last of ``n`` completions hands on
  (a shootdown's acks, a fault batch's resolutions, the run's lanes).

Every waiter is a continuation ``(fn, *args)``.  A :class:`Resource`
grantee, a :class:`Store` getter and a :class:`Gate` waiter run from
the ready queue, appended when the grant, item or opening comes.  A
lane that finds a free window slot with an empty ready queue takes it
at once through :meth:`Resource.try_acquire` instead, since the
grant's ready hop would be the next callback anyway (the tail rule of
:meth:`~repro.sim.engine.Engine.tail`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from .engine import Engine, SimulationError

__all__ = ["Resource", "Store", "Gate", "Countdown"]


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue."""

    __slots__ = ("engine", "capacity", "_in_use", "_waiters")

    def __init__(self, engine: Engine, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        #: waiting requests' continuations ``(fn, args)``, oldest first.
        self._waiters: Deque[tuple] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    def try_acquire(self) -> bool:
        """Take a free server now, without a ready hop; False, taking
        nothing, when every server is in use."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def request(self, fn: Callable[..., None], *args: Any) -> None:
        """Call ``fn(*args)`` from the ready queue once a server is
        granted: at once if one is free, else when one is released."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self.engine._ready.append((fn, args))
        else:
            self._waiters.append((fn, args))

    def release(self) -> None:
        """Return a server to the pool, waking the head waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._waiters:
            # Hand the server directly to the next waiter.
            self.engine._ready.append(self._waiters.popleft())
        else:
            self._in_use -= 1


class Store:
    """An unbounded FIFO of items; ``get`` waits for an item."""

    __slots__ = ("engine", "_items", "_getters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._items: Deque[Any] = deque()
        #: waiting getters' continuations ``(fn, args)``, oldest first.
        self._getters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def try_put(self, item: Any) -> None:
        """Add ``item``, handing it straight to the oldest waiting getter
        if there is one; never blocks."""
        if self._getters:
            fn, args = self._getters.popleft()
            self.engine._ready.append((fn, args + (item,)))
            return
        self._items.append(item)

    def try_get(self) -> tuple:
        """Non-blocking get; returns ``(True, item)`` or ``(False, None)``."""
        if not self._items:
            return (False, None)
        return (True, self._items.popleft())

    def get(self, fn: Callable[..., None], *args: Any) -> None:
        """Call ``fn(*args, item)`` with the next item, from the ready
        queue: at once if an item is queued, else when one is put."""
        if self._items:
            self.engine._ready.append((fn, args + (self._items.popleft(),)))
        else:
            self._getters.append((fn, args))


class Gate:
    """A barrier, closed when built: waiters block until it opens."""

    __slots__ = ("engine", "_open", "_waiters")

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._open = False
        self._waiters: list = []

    def open(self) -> None:
        """Open the gate and release every waiter at the current time,
        in the order they arrived."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        self.engine._ready.extend(waiters)

    def wait(self, fn: Callable[..., None], *args: Any) -> None:
        """Call ``fn(*args)`` from the ready queue: at once if the gate
        is open, else when it next opens."""
        if self._open:
            self.engine._ready.append((fn, args))
        else:
            self._waiters.append((fn, args))


class Countdown:
    """``pending`` completions counted down: the last :meth:`done` hands
    on to ``fn(*args)``."""

    __slots__ = ("engine", "pending", "fn", "args")

    def __init__(self, engine: Engine, pending: int, fn: Callable[..., None], *args: Any) -> None:
        self.engine = engine
        self.pending = pending
        self.fn = fn
        self.args = args

    def done(self) -> None:
        self.pending -= 1
        if not self.pending:
            self.engine.tail(self.fn, *self.args)
