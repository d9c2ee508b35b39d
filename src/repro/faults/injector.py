"""Seeded fault injector for interconnect and component perturbation.

One :class:`FaultInjector` serves a whole :class:`~repro.gpu.system.
MultiGPUSystem`.  Every decision is drawn from a per-site RNG stream
derived from ``(seed, "faults:<tag>")`` via :mod:`repro.sim.rng`, so:

* adding a new injection site never perturbs existing streams, and
* because the engine is deterministic, the *sequence* of queries at a
  site is deterministic too — the same (config, workload, seed) triple
  yields the same faults, which is what makes faulted golden traces and
  same-seed regression tests possible.

Each decision draws a **fixed number** of random values regardless of
outcome, so a rate change at one knob cannot shift the stream alignment
of another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ..config import FaultConfig
from ..sim.rng import stream
from ..sim.stats import StatsGroup
from ..sim.trace import NULL_TRACER

__all__ = ["FaultInjector", "MessagePlan"]

#: plan for a message that passes through unharmed.
_CLEAN_KINDS = ()


@dataclass(frozen=True)
class MessagePlan:
    """What the injector decided for one protocol message."""

    drop: bool = False
    #: extra cycles added before the message enters its link (0 = none).
    delay: int = 0
    #: send one extra copy of the message.
    duplicate: bool = False
    #: labels of the faults applied (for stats/trace), e.g. ("drop",).
    kinds: tuple = _CLEAN_KINDS

    @property
    def clean(self) -> bool:
        return not self.kinds


CLEAN_PLAN = MessagePlan()


class FaultInjector:
    """Deterministic, seeded source of fault decisions."""

    def __init__(self, config: FaultConfig, seed: int, tracer=NULL_TRACER) -> None:
        self.config = config
        self.seed = seed
        self.stats = StatsGroup("faults")
        self._tracer = tracer
        self._streams: Dict[str, random.Random] = {}

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def fastpath_safe(self) -> bool:
        """Whether the batched replay fast path may run alongside this
        injector.  The uniform-rate injector perturbs translation
        micro-architecture (walker stalls, IRMB pressure) that the fast
        path does not model, so it always forces the event path; the
        scheduled (chaos) subclass overrides this — outside episodes it
        is a pure pass-through and the fast path stays sound."""
        return False

    def _stream(self, tag: str) -> random.Random:
        rng = self._streams.get(tag)
        if rng is None:
            rng = self._streams[tag] = stream(self.seed, f"faults:{tag}")
        return rng

    # -- message perturbation (invalidation / ack packets) -----------------

    def message_plan(self, tag: str, link: str = None) -> MessagePlan:
        """Decide the fate of one protocol message at site ``tag``.

        Drop dominates (a dropped message cannot also be delayed);
        duplication and delay/reorder compose.  Reorder is modelled as a
        large extra delay — enough for later messages to overtake this
        one on the link — drawn from the upper half of ``delay_max``;
        plain delay jitter draws from the lower half.

        ``link`` names the link the message is about to traverse; the
        base injector ignores it (its streams and draw counts pin the
        faulted golden traces), but the scheduled chaos subclass overlays
        per-link episode effects on top of the base decision.
        """
        cfg = self.config
        rng = self._stream(tag)
        # Fixed draw count per call keeps streams aligned across profiles.
        r_drop = rng.random()
        r_dup = rng.random()
        r_reorder = rng.random()
        r_delay = rng.random()
        jitter = rng.randint(1, max(1, cfg.delay_max // 2))
        shove = rng.randint(cfg.delay_max // 2 + 1, cfg.delay_max)

        if r_drop < cfg.drop_rate:
            self.stats.counter("injected.drop").add()
            return MessagePlan(drop=True, kinds=("drop",))
        kinds = []
        duplicate = r_dup < cfg.duplicate_rate
        if duplicate:
            self.stats.counter("injected.duplicate").add()
            kinds.append("duplicate")
        delay = 0
        if r_reorder < cfg.reorder_rate:
            delay = shove
            self.stats.counter("injected.reorder").add()
            kinds.append("reorder")
        elif r_delay < cfg.delay_rate:
            delay = jitter
            self.stats.counter("injected.delay").add()
            kinds.append("delay")
        if not kinds:
            return CLEAN_PLAN
        return MessagePlan(drop=False, delay=delay, duplicate=duplicate, kinds=tuple(kinds))

    # -- component perturbation --------------------------------------------

    def walker_stall(self, tag: str) -> int:
        """Extra cycles a GMMU walk must stall (0 = no fault)."""
        cfg = self.config
        if self._stream(tag).random() < cfg.walker_stall_rate:
            self.stats.counter("injected.walker_stall").add()
            return cfg.walker_stall_cycles
        return 0

    def irmb_pressure(self, tag: str) -> bool:
        """Should this accepted invalidation force-evict the LRU entry?"""
        if self._stream(tag).random() < self.config.irmb_pressure_rate:
            self.stats.counter("injected.irmb_pressure").add()
            return True
        return False

    # -- accounting ---------------------------------------------------------

    def injected_total(self) -> int:
        return sum(
            self.stats.counter(f"injected.{kind}").value
            for kind in ("drop", "delay", "duplicate", "reorder",
                         "walker_stall", "irmb_pressure")
        )

    def summary(self) -> str:
        parts = [
            f"{kind}={self.stats.counter(f'injected.{kind}').value}"
            for kind in ("drop", "delay", "duplicate", "reorder",
                         "walker_stall", "irmb_pressure")
        ]
        return "faults injected: " + ", ".join(parts)
