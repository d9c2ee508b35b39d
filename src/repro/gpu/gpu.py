"""One GPU: TLB hierarchy, GMMU, local page table, memory, and IDYLL
hardware (IRMB + lazy controller, optional Trans-FW table).

The translation pipeline follows §3.2 / Fig. 3:

1. L1 TLB (1 cycle, per-CU) with a per-CU MSHR;
2. shared L2 TLB (10 cycles) probed **in parallel with the IRMB** (§6.3);
3. GMMU page walk (queue → PWC → walker threads, 100 cy/level);
4. far fault to the UVM driver when the local PTE is invalid — or
   immediately on an IRMB hit, bypassing the stale local walk.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..config import InvalidationScheme, SystemConfig
from ..core.irmb import IRMB
from ..core.lazy import LazyInvalidationController
from ..core.transfw import TransFW
from ..gmmu.gmmu import GMMU
from ..gmmu.request import WalkKind
from ..interconnect.link import CONTROL_MESSAGE_BYTES
from ..interconnect.topology import Interconnect
from ..memory import pte as pte_bits
from ..memory.address import AddressLayout
from ..memory.page_table import PageTable
from ..memory.physmem import PhysicalMemory
from ..sim.engine import Engine
from ..sim.stats import StatsGroup
from ..tlb.mshr import MSHR
from ..tlb.tlb import TLB

__all__ = ["GPU"]

#: device memory per GPU (Table 2: 4 GB DRAM).
DEVICE_MEMORY_BYTES = 4 * 1024 * 1024 * 1024

#: remote data reply payload (one cache line each way, request + data).
REMOTE_DATA_BYTES = 128

_LAZY_SCHEMES = (InvalidationScheme.LAZY, InvalidationScheme.IDYLL)

# Bound once: enum member access is a metaclass lookup, and the access
# machine submits these walks once per L2 miss and far fault.
_DEMAND = WalkKind.DEMAND
_UPDATE = WalkKind.UPDATE


class GPU:
    """A single GPU node in the multi-GPU system."""

    def __init__(
        self,
        engine: Engine,
        gpu_id: int,
        config: SystemConfig,
        layout: AddressLayout,
        interconnect: Interconnect,
        driver,
        seed: int = 7,
        injector=None,
    ) -> None:
        self.engine = engine
        self.gpu_id = gpu_id
        self.config = config
        self.layout = layout
        self.interconnect = interconnect
        self.driver = driver
        self.name = f"gpu{gpu_id}"
        self.stats = StatsGroup(f"gpu{gpu_id}")
        self._tracer = engine.tracer
        #: fault injector (None in unfaulted runs); only its IRMB-pressure
        #: hook reaches the GPU, every race defence runs regardless.
        self.injector = injector
        #: per-VPN invalidation epoch; lets an in-flight mapping install
        #: detect that a shootdown overtook its UPDATE walk.
        self._inval_epoch: dict = {}

        self.page_table = PageTable(layout, f"gpu{gpu_id}.pt")
        self.memory = PhysicalMemory(gpu_id, DEVICE_MEMORY_BYTES, config.page_size)
        self.gmmu = GMMU(
            engine, config.gmmu, self.page_table, f"gpu{gpu_id}.gmmu", injector=injector
        )
        self.l1_tlbs: List[TLB] = [
            TLB(config.l1_tlb, f"gpu{gpu_id}.l1tlb{i}", tracer=engine.tracer)
            for i in range(config.trace_lanes)
        ]
        #: the L1 TLBs a shootdown visits (see :meth:`attach_lanes`).
        self._lane_l1s: List[TLB] = self.l1_tlbs
        self.l1_mshrs: List[MSHR] = [
            MSHR(engine, f"gpu{gpu_id}.l1mshr{i}") for i in range(config.trace_lanes)
        ]
        self.l2_tlb = TLB(config.l2_tlb, f"gpu{gpu_id}.l2tlb", tracer=engine.tracer)
        self.l2_mshr = MSHR(engine, f"gpu{gpu_id}.l2mshr")

        self.irmb: Optional[IRMB] = None
        self.lazy: Optional[LazyInvalidationController] = None
        if config.invalidation_scheme in _LAZY_SCHEMES:
            self.irmb = IRMB(config.irmb, layout, f"gpu{gpu_id}.irmb", tracer=engine.tracer)
            self.lazy = LazyInvalidationController(
                engine, self.irmb, self.gmmu, f"gpu{gpu_id}.lazy",
                idle_writeback=config.lazy_idle_writeback,
            )
            self.lazy.on_applied = self._flush_raced_fills

        self.transfw: Optional[TransFW] = None
        if config.transfw_enabled:
            self.transfw = TransFW(gpu_id, config.num_gpus, config.transfw, seed)

        #: instructions retired (for MPKI); incremented by the lanes.
        self.instructions = 0
        #: the system's FastPath coordinator (None = pure event path);
        #: attached by MultiGPUSystem when batched replay is eligible.
        self.fastpath = None
        #: bumped on every TLB shootdown / pushed mapping — parked-lane
        #: replay records snapshot it, so any invalidation that lands
        #: while a lane is parked voids its batch eligibility.
        self.inval_generation = 0
        #: count of driver episodes currently touching this GPU (far
        #: faults it raised, invalidations targeting it, migrations it is
        #: source or destination of).  The per-GPU park/unpark gauge:
        #: lanes park only while it is zero, and a parked lane is
        #: unparked the round after it rises (DESIGN.md §8.2).
        self.driver_busy = 0

        # Hot-path bindings: these run once per simulated memory access,
        # so config/property hops and StatsGroup dict probes add up.
        self._l1_latency = config.l1_tlb.lookup_latency
        self._l2_latency = config.l2_tlb.lookup_latency
        self._dram_latency = config.dram_latency
        self._fast_latency = self._l1_latency + config.dram_latency
        #: the driver's migration gates: VPN -> the Gate that holds the
        #: page's requests while it migrates.  A gate leaves the table
        #: before it opens, so every gate found there is closed.
        self._gates = driver._gates
        stats = self.stats
        self._n_local = stats.counter("local_accesses")
        self._n_remote = stats.counter("remote_accesses")
        self._n_completed = stats.counter("accesses_completed")
        self._n_far_faults = stats.counter("far_faults")
        self._n_irmb_bypasses = stats.counter("irmb_bypasses")
        self._n_inval_necessary = stats.counter("inval_received.necessary")
        self._n_inval_unnecessary = stats.counter("inval_received.unnecessary")
        self._t_demand_miss = stats.latency("demand_miss_latency")
        self._t_far_fault = stats.latency("far_fault_latency")
        self._t_migration_stall = stats.latency("migration_stall")

    def attach_lanes(self, count: int) -> None:
        """Lanes ``0 .. count - 1`` replay traces on this GPU.

        No other lane can fill an L1 TLB, so shootdowns and raced-fill
        flushes visit only these lanes' L1 TLBs.  A GPU with no lanes
        attached visits all of them."""
        self._lane_l1s = self.l1_tlbs[:count] if count else self.l1_tlbs

    # ------------------------------------------------------------------
    # The access pipeline
    # ------------------------------------------------------------------

    def try_fast_access(self, lane: int, vpn: int, is_write: bool) -> Optional[int]:
        """Synchronous fast path for an L1 TLB hit on a local,
        non-migrating page: 50,257 of the 345,600 accesses (14.5%) of
        the benchmark's Table-3 ``apps`` set at seed 7.  Returns the
        access's total latency so the lane can model occupancy with a
        single scheduled event, or None when the full pipeline must run.

        This is purely a simulator optimisation: the latency and all
        statistics are identical to the slow path for the covered case.
        """
        if vpn in self._gates:
            return None
        l1 = self.l1_tlbs[lane]
        word = l1.peek(vpn)
        if word is None:
            return None
        if is_write and self.config.page_replication and self.driver.replicas.is_replicated(vpn):
            return None
        if PhysicalMemory.owner_of(pte_bits.ppn(word)) != self.gpu_id:
            return None
        l1.lookup(vpn)  # record the hit and refresh LRU
        self._n_local.value += 1
        self._n_completed.value += 1
        return self._fast_latency

    def access(self, lane, vpn: int, is_write: bool) -> None:
        """Start one full memory access for ``lane`` (a
        :class:`~repro.gpu.cu.Lane`): translate, stall while the page
        migrates, then perform the data access.  On completion the
        access retires, frees the lane's window slot and leaves the
        lane's slow-access count."""
        _Access(self, lane, lane.lane_id, vpn, is_write)

    # ------------------------------------------------------------------
    # Shootdown handling (driver-facing)
    # ------------------------------------------------------------------

    def receive_invalidation(self, vpn: int, dst: int, pending,
                             fn: Callable[..., None], *args: Any) -> None:
        """Handle one incoming PTE invalidation request; ``fn(*args)`` is
        the GPU's acknowledgement.

        ``pending`` is the driver's in-flight record of the invalidation
        (:class:`~repro.uvm.protocol.PendingInvalidation`), or None: a
        retry or duplicated packet of a record this GPU has already
        received is *not* re-applied — it is re-acked immediately, making
        delivery idempotent.

        Called as the last act of the request's arrival, so the ack runs
        under :meth:`~repro.sim.engine.Engine.tail`.
        """
        if pending is not None:
            if pending.received:
                self.stats.counter("inval_received.duplicate").add()
                if self._tracer.enabled:
                    self._tracer.emit("inval.dedup", self.name, vpn, iseq=pending.seq)
                self.engine.tail(fn, *args)
                return
            pending.received = True
        self._begin_invalidation(vpn)
        if self.transfw is not None:
            # Learn where the page is heading: future faults can forward.
            self.transfw.learn(vpn, dst)

        if self.lazy is not None:
            # Lazy invalidation: buffer in the IRMB, ack immediately (§6.3).
            self.lazy.accept_invalidation(vpn)
            if self.injector and self.injector.irmb_pressure(f"{self.name}.irmb"):
                # Artificial overflow pressure: force the LRU entry out.
                self.lazy.force_evict()
            self.engine.tail(fn, *args)
        else:
            self.gmmu.walk(vpn, WalkKind.INVALIDATE, self._invalidation_applied, vpn, fn, args)

    def _invalidation_applied(self, vpn: int, fn: Callable[..., None], args: tuple,
                              _was_valid) -> None:
        """The eager INVALIDATE walk retired: flush raced fills, ack."""
        self._flush_raced_fills(vpn)
        self.engine.tail(fn, *args)

    def apply_instant_invalidation(self, vpn: int) -> None:
        """Zero-latency-invalidation ideal: PTE updated instantaneously."""
        self._begin_invalidation(vpn)
        self.page_table.invalidate(vpn)

    def _begin_invalidation(self, vpn: int) -> None:
        """The receive-time half of an invalidation: count it, advance
        the page's epoch (so every payload fetched before it is
        recognised as stale) and shoot down the TLBs."""
        if self.page_table.translate(vpn) is not None:
            self._n_inval_necessary.value += 1
        else:
            self._n_inval_unnecessary.value += 1
        self._inval_epoch[vpn] = self._inval_epoch.get(vpn, 0) + 1
        self._shootdown_tlbs(vpn)

    def _shootdown_tlbs(self, vpn: int) -> None:
        """TLB shootdown is immediate in baseline *and* IDYLL (§6.3)."""
        self.inval_generation += 1
        self.l2_tlb.shootdown(vpn)
        for l1 in self._lane_l1s:
            l1.shootdown(vpn)

    def _flush_raced_fills(self, vpn: int) -> None:
        """Flush TLB entries that raced with an INVALIDATE walk.

        The receive-time shootdown clears the TLBs, but the local PTE
        stays valid until the INVALIDATE walk retires — a demand walk
        completing inside that window re-fills the TLBs from the
        still-valid PTE, and nothing would evict those entries again:
        this GPU would ack the shootdown while still able to serve the
        stale translation.  Called when the INVALIDATE walk (eager or
        IRMB writeback) actually applies; a no-op unless a fill raced.
        """
        flushed = self.l2_tlb.shootdown(vpn)
        for l1 in self._lane_l1s:
            flushed = l1.shootdown(vpn) or flushed
        if flushed:
            # The fast path must revalidate any lane parked on this page.
            self.inval_generation += 1
            self.stats.counter("inval_refill_flushes").add()

    def _cancel_buffered_invalidation(self, vpn: int) -> None:
        """A fresh mapping is about to be installed: cancel the page's
        pending lazy invalidation.  It will never apply, so its
        apply-time raced-fill flush will never run; evict any fill that
        raced with the original shootdown on its behalf."""
        if self.lazy is not None and self.lazy.on_new_mapping(vpn):
            self._flush_raced_fills(vpn)

    def deliver_mapping(self, vpn: int, word: int, fn: Callable[..., None], *args: Any) -> None:
        """Driver pushes a fresh mapping (migration destination): cancel
        any pending IRMB invalidation and install via an UPDATE walk;
        ``fn(*args)`` runs once the install is checked.

        The pushed payload is versioned with this GPU's invalidation
        epoch at send time (the epoch advances once per applied
        invalidation): if a newer shootdown lands while the UPDATE walk
        is still in flight, the install is undone at retire time instead
        of re-installing a pre-shootdown owner into the page table.  On
        a clean install any TLB fill that raced with an earlier
        shootdown is flushed, so a remote-marker entry cannot outlive
        the migration.
        """
        self.inval_generation += 1
        self._cancel_buffered_invalidation(vpn)
        version = self._inval_epoch.get(vpn, 0)
        self.gmmu.walk(
            vpn, WalkKind.UPDATE, self._mapping_installed, vpn, version, fn, args, word=word
        )

    def _mapping_installed(self, vpn: int, version: int, fn: Callable[..., None],
                           args: tuple, _word) -> None:
        if self._inval_epoch.get(vpn, 0) == version:
            self._flush_raced_fills(vpn)
        else:
            self.stats.counter("stale_push_undone").add()
            if self._tracer.enabled:
                self._tracer.emit("fault.stale_push", self.name, vpn)
            self.page_table.invalidate(vpn)
            self._shootdown_tlbs(vpn)
        # The install check and the caller are the walk's two waiters, in
        # that order: the caller runs right after, in the same callback.
        fn(*args)


class _Access:
    """One slow memory access, run as a callback state machine.

    The translation pipeline (L1 TLB + MSHR, L2 TLB probed in parallel
    with the IRMB, GMMU demand walk, far fault plus UPDATE walk, the
    Trans-FW forward) is followed by the migration-gate stall with its
    re-translate loop, and by the local or remote (NVLink) data access.
    Each method is one state: it runs the work between two waits, then
    hands the next state to what it waits on (``Engine.defer`` for a
    fixed latency; a transfer, walk, MSHR entry, far fault, gate or
    replica collapse takes it as a continuation).  The first state runs
    inline, in the lane step that issues the access.

    Every fill payload is *versioned* with the per-VPN invalidation
    epoch (advanced by each applied invalidation, see
    :meth:`GPU._begin_invalidation`): a payload released from an MSHR
    after a shootdown overtook it carries a stale version and is
    dropped instead of installed, and the access re-translates.
    """

    __slots__ = (
        "gpu", "lane", "lane_id", "vpn", "is_write", "word", "owner",
        "epoch", "t_miss", "t_fault", "t_stall",
    )

    def __init__(self, gpu: GPU, lane, lane_id: int, vpn: int, is_write: bool) -> None:
        self.gpu = gpu
        self.lane = lane
        self.lane_id = lane_id
        self.vpn = vpn
        self.is_write = is_write
        #: the PTE word in hand (translation result, or the far fault's
        #: mapping, or the Trans-FW remote PTE while it is fetched).
        self.word: Optional[int] = None
        #: the remote GPU a Trans-FW forward or a data access talks to.
        self.owner = -1
        #: the far fault's fetch-time invalidation epoch.
        self.epoch = 0
        self.t_miss = self.t_fault = self.t_stall = 0
        self._translate()

    # -- translation: L1 TLB, L2 TLB + IRMB ---------------------------------

    def _translate(self) -> None:
        gpu = self.gpu
        gpu.engine.defer(gpu._l1_latency, self._l1_lookup)

    def _l1_lookup(self) -> None:
        gpu = self.gpu
        vpn = self.vpn
        word = gpu.l1_tlbs[self.lane_id].lookup(vpn)
        if word is not None:
            self._translated(word)
            return
        mshr1 = gpu.l1_mshrs[self.lane_id]
        if not mshr1.allocate(vpn):
            mshr1.wait(vpn, self._l1_coalesced)
            return
        # L2 TLB and IRMB are probed in parallel; both fit in the L2 latency.
        gpu.engine.defer(gpu._l2_latency, self._l2_lookup)

    def _l1_coalesced(self, payload: tuple) -> None:
        gpu = self.gpu
        word, version = payload
        if gpu._inval_epoch.get(self.vpn, 0) == version:
            self._translated(word)
            return
        # A shootdown landed while this waiter was being released: the
        # payload predates it.  Drop and retry.
        gpu.stats.counter("stale_payload_drops").add()
        gpu.engine.defer(gpu._l1_latency, self._l1_lookup)

    def _l2_lookup(self) -> None:
        gpu = self.gpu
        vpn = self.vpn
        word = gpu.l2_tlb.lookup(vpn)
        if word is not None:
            self._l1_fill(word, gpu._inval_epoch.get(vpn, 0))
            return
        # Demand L2 TLB miss: IRMB bypass / page walk / far fault.
        self.t_miss = gpu.engine._now
        l2_mshr = gpu.l2_mshr
        if not l2_mshr.allocate(vpn):
            l2_mshr.wait(vpn, self._l2_coalesced)
            return
        lazy = gpu.lazy
        if lazy is not None and gpu.config.irmb_bypass_enabled and lazy.probe(vpn):
            # IRMB hit: the local PTE is stale — bypass the local walk and
            # raise the far fault straight away (§6.3 scenario three).
            gpu._n_irmb_bypasses.value += 1
            if gpu._tracer.enabled:
                gpu._tracer.emit("irmb.bypass", gpu.name, vpn)
            self._far_fault()
            return
        gpu.gmmu.walk(vpn, _DEMAND, self._walked)

    def _l2_coalesced(self, payload: tuple) -> None:
        gpu = self.gpu
        gpu._t_demand_miss.record(gpu.engine._now - self.t_miss)
        self._l1_fill(*payload)  # (word, version), stamped by the primary

    def _walked(self, word: Optional[int]) -> None:
        if word is None:
            self._far_fault()
        else:
            self._l2_fill(word)

    def _l2_fill(self, word: int) -> None:
        """The L2 miss resolved: fill the L2 TLB, release its waiters
        with the word stamped by the VPN's invalidation epoch at the
        instant the word was known good."""
        gpu = self.gpu
        vpn = self.vpn
        gpu.l2_tlb.insert(vpn, word)
        version = gpu._inval_epoch.get(vpn, 0)
        gpu.l2_mshr.complete(vpn, (word, version))
        gpu._t_demand_miss.record(gpu.engine._now - self.t_miss)
        self._l1_fill(word, version)

    def _l1_fill(self, word: int, version: int) -> None:
        gpu = self.gpu
        vpn = self.vpn
        mshr1 = gpu.l1_mshrs[self.lane_id]
        if gpu._inval_epoch.get(vpn, 0) != version:
            # Versioned install: the fill is older than the newest
            # invalidation applied to this page.  Propagate the stale
            # payload (waiters re-validate it themselves) and
            # re-translate instead of installing a pre-shootdown owner
            # into the L1 TLB.
            gpu.stats.counter("stale_payload_drops").add()
            mshr1.complete(vpn, (word, version))
            gpu.engine.defer(gpu._l1_latency, self._l1_lookup)
            return
        gpu.l1_tlbs[self.lane_id].insert(vpn, word)
        mshr1.complete(vpn, (word, version))
        self._translated(word)

    # -- far fault (driver round trip + UPDATE walk) ------------------------

    def _far_fault(self) -> None:
        gpu = self.gpu
        self.t_fault = gpu.engine._now
        gpu._n_far_faults.value += 1
        # Version the payload at *fetch* time, not install time: a
        # shootdown applied anywhere between raising the fault and the
        # UPDATE walk retiring makes the reply stale, and capturing the
        # epoch after the reply arrives would silently absorb any bump
        # that landed during the round trip.
        self.epoch = gpu._inval_epoch.get(self.vpn, 0)
        if gpu.transfw is not None:
            self._transfw_forward()
        else:
            self._raise_fault()

    def _raise_fault(self, retry: bool = False) -> None:
        gpu = self.gpu
        gpu.driver.raise_far_fault(gpu.gpu_id, self.vpn, self.is_write, retry, self._install)

    def _install(self, word: int) -> None:
        """Install the fresh mapping in the local page table via an
        UPDATE walk."""
        gpu = self.gpu
        vpn = self.vpn
        self.word = word
        gpu._cancel_buffered_invalidation(vpn)
        gpu.gmmu.walk(vpn, _UPDATE, self._installed, word=word)

    def _installed(self, _word: int) -> None:
        gpu = self.gpu
        vpn = self.vpn
        if gpu._inval_epoch.get(vpn, 0) != self.epoch:
            # A shootdown overtook the fault round trip or the UPDATE
            # walk: the word just installed is already stale.  Undo the
            # install and refetch; the refetch is a retry, which the
            # driver never answers with a migration.
            gpu.stats.counter("stale_install_races").add()
            if gpu._tracer.enabled:
                gpu._tracer.emit("fault.stale_install", gpu.name, vpn)
            gpu._shootdown_tlbs(vpn)
            gpu.page_table.invalidate(vpn)
            self.epoch = gpu._inval_epoch.get(vpn, 0)
            self._raise_fault(retry=True)
            return
        gpu._t_far_fault.record(gpu.engine._now - self.t_fault)
        self._l2_fill(self.word)

    def _transfw_forward(self) -> None:
        """Trans-FW (§7.5): try to fetch the translation from a remote
        GPU's page table instead of faulting to the host."""
        gpu = self.gpu
        owner = gpu.transfw.probe(self.vpn)
        if owner is None or owner == gpu.gpu_id:
            self._raise_fault()
            return
        self.owner = owner
        gpu.interconnect.gpu_to_gpu(gpu.gpu_id, owner, CONTROL_MESSAGE_BYTES, self._transfw_sent)

    def _transfw_sent(self) -> None:
        gpu = self.gpu
        gpu.engine.defer(gpu.config.transfw.remote_lookup_latency, self._transfw_lookup)

    def _transfw_lookup(self) -> None:
        gpu = self.gpu
        self.word = gpu.driver.gpus[self.owner].page_table.translate(self.vpn)
        gpu.interconnect.gpu_to_gpu(
            self.owner, gpu.gpu_id, CONTROL_MESSAGE_BYTES, self._transfw_replied
        )

    def _transfw_replied(self) -> None:
        gpu = self.gpu
        vpn = self.vpn
        remote_word = self.word
        if remote_word is None:
            gpu.stats.counter("transfw_misforwards").add()
            gpu.transfw.forget(vpn)
            self._raise_fault()
            return
        actual_owner = PhysicalMemory.owner_of(pte_bits.ppn(remote_word))
        if actual_owner == gpu.gpu_id:
            word = pte_bits.make_pte(pte_bits.ppn(remote_word))
        else:
            word = pte_bits.make_remote_pte(pte_bits.ppn(remote_word), actual_owner)
        gpu.driver.note_transfw_mapping(vpn, gpu.gpu_id)
        gpu.stats.counter("transfw_forwards").add()
        self._install(word)

    # -- migration stall, then the data access ------------------------------

    def _translated(self, word: int) -> None:
        """Requests to a migrating page stall until the new mapping is
        established, then re-translate (§5.2's page migration waiting)."""
        gpu = self.gpu
        self.word = word
        gate = gpu._gates.get(self.vpn)
        if gate is None:
            self._data_access()
            return
        self.t_stall = gpu.engine._now
        gate.wait(self._gate_opened)

    def _gate_opened(self) -> None:
        gpu = self.gpu
        gpu._t_migration_stall.record(gpu.engine._now - self.t_stall)
        self._translate()

    def _data_access(self) -> None:
        """Serve the data once translation is done: local DRAM or remote
        GPU memory over NVLink (remote data is not cached, §3.2)."""
        gpu = self.gpu
        if (
            self.is_write
            and gpu.config.page_replication
            and gpu.driver.replicas.is_replicated(self.vpn)
        ):
            # A write to a replicated page collapses the replicas first.
            gpu.engine.schedule(0, gpu.driver.collapse_replicas, self.vpn, self._fetch)
            return
        self._fetch()

    def _fetch(self) -> None:
        gpu = self.gpu
        owner = PhysicalMemory.owner_of(pte_bits.ppn(self.word))
        if owner == gpu.gpu_id:
            gpu._n_local.value += 1
            gpu.engine.defer(gpu._dram_latency, self._retire)
            return
        gpu._n_remote.value += 1
        gpu.driver.note_remote_access(gpu.gpu_id, self.vpn)
        self.owner = owner
        gpu.interconnect.gpu_to_gpu(gpu.gpu_id, owner, CONTROL_MESSAGE_BYTES, self._remote_read)

    def _remote_read(self) -> None:
        gpu = self.gpu
        gpu.engine.defer(gpu._dram_latency, self._remote_reply)

    def _remote_reply(self) -> None:
        gpu = self.gpu
        gpu.interconnect.gpu_to_gpu(self.owner, gpu.gpu_id, REMOTE_DATA_BYTES, self._retire)

    def _retire(self) -> None:
        lane = self.lane
        self.gpu._n_completed.value += 1
        lane._window.release()
        lane._slow -= 1
