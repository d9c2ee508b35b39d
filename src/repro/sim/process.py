"""Synchronisation primitives built on the event kernel.

These mirror the queueing structures found in the modelled hardware:

* :class:`Resource` — a counted server pool (host page-table walkers,
  fault-batch service slots, a lane's in-flight window).  Requests
  queue FIFO.
* :class:`Store` — an unbounded or bounded FIFO of items (the driver's
  fault queue).
* :class:`Gate` — a reusable open/close barrier (pages blocked during
  migration).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Engine, Event, SimulationError

__all__ = ["Resource", "Store", "Gate"]


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue."""

    __slots__ = ("engine", "capacity", "_in_use", "_waiters")

    def __init__(self, engine: Engine, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def idle(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Returns an event that fires when a server is granted."""
        ev = Event(self.engine)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a server to the pool, waking the head waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._waiters:
            # Hand the server directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Store:
    """A FIFO of items; ``get`` waits for an item, ``put`` may wait for room."""

    __slots__ = ("engine", "capacity", "_items", "_getters", "_putters")

    def __init__(self, engine: Engine, capacity: Optional[int] = None) -> None:
        self.engine = engine
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Returns an event that fires once the item is accepted."""
        ev = Event(self.engine)
        if self._getters:
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def try_get(self) -> tuple:
        """Non-blocking get; returns ``(True, item)`` or ``(False, None)``."""
        if not self._items:
            return (False, None)
        item = self._items.popleft()
        if self._putters:
            put_ev, queued = self._putters.popleft()
            self._items.append(queued)
            put_ev.succeed()
        return (True, item)

    def get(self) -> Event:
        """Returns an event that fires with the next item."""
        ev = Event(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed()
        else:
            self._getters.append(ev)
        return ev


class Gate:
    """A reusable barrier: when closed, waiters block until re-opened."""

    __slots__ = ("engine", "_open", "_waiters")

    def __init__(self, engine: Engine, open_: bool = True) -> None:
        self.engine = engine
        self._open = open_
        self._waiters: list = []

    @property
    def is_open(self) -> bool:
        return self._open

    def close(self) -> None:
        self._open = False

    def open(self) -> None:
        """Open the gate and release every waiter at the current time."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed()

    def wait(self) -> Event:
        """Event that fires immediately if open, else when next opened."""
        ev = Event(self.engine)
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev
