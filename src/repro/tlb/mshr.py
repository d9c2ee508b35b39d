"""Miss-status holding registers with same-VPN coalescing.

The first miss to a VPN becomes the *primary* and performs the fill;
subsequent misses to the same VPN register a continuation on the MSHR
entry, and the primary's completion queues them all, in the order they
registered.  §6.3 leans on this behaviour for
correctness: while a far fault for a page is outstanding, every later
request to that page is held at the L2 TLB MSHR and can never reach the
GMMU, so a stale PTE masked only by the IRMB is never walked.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..sim.engine import Engine
from ..sim.stats import StatsGroup

__all__ = ["MSHR"]


class MSHR:
    """Coalescing miss tracker keyed by VPN."""

    __slots__ = ("engine", "stats", "_pending", "_n_primary", "_n_coalesced")

    def __init__(self, engine: Engine, name: str = "mshr") -> None:
        self.engine = engine
        self.stats = StatsGroup(name)
        #: VPN -> coalesced continuations ``(fn, args)``, oldest first.
        self._pending: Dict[int, List[tuple]] = {}
        self._n_primary = self.stats.counter("primary_misses")
        self._n_coalesced = self.stats.counter("coalesced_misses")

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._pending

    def allocate(self, vpn: int) -> bool:
        """Try to become primary for ``vpn``.

        Returns True if the caller is the primary (it must eventually call
        :meth:`complete`); False if a miss for this VPN is already in
        flight (the caller should :meth:`wait` instead).
        """
        if vpn in self._pending:
            return False
        self._pending[vpn] = []
        self._n_primary.value += 1
        return True

    def wait(self, vpn: int, fn: Callable[..., None], *args: Any) -> None:
        """Coalesce onto the primary: ``fn(*args, value)`` runs, from the
        ready queue, with the fill value once the primary completes."""
        waiters = self._pending.get(vpn)
        if waiters is None:
            raise KeyError(f"no outstanding miss for VPN {vpn:#x}")
        waiters.append((fn, args))
        self._n_coalesced.value += 1

    def complete(self, vpn: int, value: Any = None) -> int:
        """Primary finished: queue every coalesced waiter, in the order
        they registered.  Returns the number of waiters released.
        """
        waiters = self._pending.pop(vpn, None)
        if waiters is None:
            raise KeyError(f"no outstanding miss for VPN {vpn:#x}")
        if waiters:
            append = self.engine._ready.append
            value_args = (value,)
            for fn, args in waiters:
                append((fn, args + value_args))
        return len(waiters)
