"""The host-side UVM driver (§3.2, §3.3, §6.2).

The driver owns the centralized host page table (the authoritative
VPN → location mapping for the whole system), services far faults in
batches of up to 256, runs the page-migration policy, and orchestrates
PTE shootdowns — broadcast in the baseline, directory-filtered under
IDYLL, instantaneous under the zero-latency-invalidation ideal.

Pages start in CPU memory; a GPU's first touch migrates the page in
(all policies).  Thereafter location is governed by the configured
:class:`~repro.config.MigrationPolicy`, or by read-replication when
``page_replication`` is enabled (§7.4).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from ..config import (
    DirectoryKind,
    InvalidationScheme,
    MigrationPolicy,
    SystemConfig,
)
from ..core.directory import InPTEDirectory
from ..core.inmem import VMTableDirectory
from ..faults.injector import CLEAN_PLAN
from ..interconnect.link import CONTROL_MESSAGE_BYTES
from ..interconnect.topology import Interconnect
from ..memory import pte as pte_bits
from ..memory.address import AddressLayout
from ..memory.page_table import PageTable
from ..memory.physmem import pte_owner
from ..sim.engine import Engine
from ..sim.process import Countdown, Gate, Resource, Store
from ..sim.stats import StatsGroup
from .fault import FarFault
from .migration import AccessCounters
from .protocol import InvalidationTracker
from .replication import ReplicaDirectory

__all__ = ["UVMDriver"]

#: concurrent host page-table walks; the host walk path is high-bandwidth
#: relative to GPU walkers (§7.1 discussion).
HOST_WALKER_THREADS = 16

#: schemes whose shootdowns are filtered by a residency directory.
_DIRECTORY_SCHEMES = (InvalidationScheme.DIRECTORY, InvalidationScheme.IDYLL)


class UVMDriver:
    """Centralized UVM driver for one multi-GPU system."""

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        interconnect: Interconnect,
        layout: AddressLayout,
        injector=None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.interconnect = interconnect
        self.layout = layout
        self.name = "uvm"
        self.stats = StatsGroup("uvm")
        self._tracer = engine.tracer
        # Bound once: the fault, migration and shootdown chains bump these.
        stats = self.stats
        self._n_far_faults = stats.counter("far_faults")
        self._n_first_touch = stats.counter("first_touch_migrations")
        self._n_remote_mappings = stats.counter("remote_mappings")
        self._n_migrations = stats.counter("migrations")
        self._n_invalidations_sent = stats.counter("invalidations_sent")
        self._t_fault = stats.latency("fault_latency")
        self._t_migration_waiting = stats.latency("migration_waiting")
        self._t_migration_total = stats.latency("migration_total")
        #: fault injector (None in unfaulted runs): it draws the fate of
        #: every invalidation request and ack, and its presence arms each
        #: attempt's retry timer.
        self.injector = injector
        #: the in-flight invalidation ledger: one record per shootdown.
        self.tracker = InvalidationTracker(
            engine, config.faults, stats=self.stats, tracer=engine.tracer
        )
        #: (gpu, vpn) pairs whose stale fault reply was deliberately
        #: accepted after MAX_REPLY_RETRIES — the auditor excuses these.
        self._stale_accepted: Set[tuple] = set()
        # Host page tables are 5-level in the paper's Fig. 9.
        host_layout = AddressLayout(layout.page_size, levels=layout.levels + 1)
        self.host_page_table = PageTable(host_layout, "host_pt")
        self.directory = self._build_directory()
        self.counters = AccessCounters(config.uvm, tracer=engine.tracer)
        self.replicas = ReplicaDirectory()
        self.fault_queue: Store = Store(engine)
        self.host_walkers = Resource(engine, HOST_WALKER_THREADS)
        self._batch_slots = Resource(engine, 4)
        self.gpus: List = []
        self._gates: Dict[int, Gate] = {}
        self._migrating: Set[int] = set()
        #: per-page migration generation — a fault reply is only valid if
        #: no migration completed between resolution and delivery
        #: (otherwise the GPU would install a stale mapping that the
        #: migration's shootdown already passed by).
        self._generation: Dict[int, int] = {}
        #: pages pinned by the first-touch policy.
        self._pinned: Set[int] = set()
        # The fault service loop starts from the ready queue.
        engine.schedule(0, self._next_batch)

    def _build_directory(self):
        if self.config.invalidation_scheme not in _DIRECTORY_SCHEMES:
            return None
        if self.config.directory_kind is DirectoryKind.IN_MEMORY:
            return VMTableDirectory(self.config.num_gpus, self.config.vm_cache)
        return InPTEDirectory(
            self.host_page_table,
            self.config.num_gpus,
            self.config.directory_bits,
            tracer=self.engine.tracer,
        )

    def attach_gpus(self, gpus: List) -> None:
        """Late-bind the GPU objects (driver and GPUs reference each other)."""
        if len(gpus) != self.config.num_gpus:
            raise ValueError("GPU count does not match config")
        self.gpus = gpus

    # ------------------------------------------------------------------
    # Far faults
    # ------------------------------------------------------------------

    def raise_far_fault(self, gpu_id: int, vpn: int, is_write: bool, retry: bool,
                        fn: Callable[..., None], *args: Any) -> None:
        """Called by a GPU's GMMU.  Covers the interrupt over PCIe, driver
        batching, resolution, and the reply; ``fn(*args, word)`` runs
        with the new PTE word once the reply has reached the GPU.
        ``retry`` marks the refetch of a reply that went stale before it
        was installed: it is resolved without migrating."""
        fault = FarFault(gpu_id, vpn, is_write, self.engine._now, fn, args, retry)
        self.gpus[gpu_id].driver_busy += 1
        self._n_far_faults.value += 1
        if self._tracer.enabled:
            self._tracer.emit("fault.raise", self.name, vpn, gpu=gpu_id, write=is_write)
        # GPU fault buffer -> interrupt -> driver fetches the fault info
        # into the unbounded fault queue.
        self.interconnect.gpu_to_host(
            gpu_id, CONTROL_MESSAGE_BYTES, self.fault_queue.try_put, fault
        )

    # The fault service loop batches faults (≤256 per batch); a bounded
    # pool of service contexts resolves batches concurrently (the
    # driver's worker threads), so one slow batch does not stall fault
    # intake.  Its three states:

    def _next_batch(self) -> None:
        """Wait for the first fault of the next batch."""
        self.fault_queue.get(self._open_batch)

    def _open_batch(self, first: FarFault) -> None:
        # Collection window: let concurrent faults coalesce into the batch.
        self.engine.defer(self.config.uvm.fault_batch_timeout, self._close_batch, first)

    def _close_batch(self, first: FarFault) -> None:
        cfg = self.config.uvm
        batch: List[FarFault] = [first]
        while len(batch) < cfg.fault_batch_size:
            ok, fault = self.fault_queue.try_get()
            if not ok:
                break
            batch.append(fault)
        self.stats.counter("fault_batches").add()
        self.stats.histogram("batch_size").record(len(batch))
        if self._tracer.enabled:
            self._tracer.emit("fault.batch", self.name, count=len(batch))
        self._batch_slots.request(_FaultBatch(self, batch).granted)

    #: bound on stale-reply re-resolutions; retry passes never migrate,
    #: so two racing on-touch faults cannot ping-pong a page forever.
    MAX_REPLY_RETRIES = 3

    def _first_touch(self, vpn: int, gpu_id: int, fn: Callable[..., None], *args: Any) -> None:
        """Page still in CPU memory: migrate it to the first-touching GPU;
        ``fn(*args, word)`` runs with the mapping."""
        # Another fault may have populated the page while we walked.
        word = self.host_page_table.translate(vpn)
        if word is not None:
            owner = pte_owner(word)
            self._record_resident(vpn, gpu_id)
            if owner == gpu_id:
                word = pte_bits.make_pte(pte_bits.ppn(word))
            else:
                word = pte_bits.make_remote_pte(pte_bits.ppn(word), owner)
            self.engine.tail(fn, *args, word)
            return
        ppn = self.gpus[gpu_id].memory.allocate(vpn)
        self.host_page_table.set_entry(vpn, pte_bits.make_pte(ppn))
        self.interconnect.host_to_gpu(
            gpu_id, self.config.page_size, self._first_touched, vpn, gpu_id, ppn, fn, args
        )

    def _first_touched(self, vpn: int, gpu_id: int, ppn: int,
                       fn: Callable[..., None], args: tuple) -> None:
        self._record_resident(vpn, gpu_id)
        if self.config.migration_policy is MigrationPolicy.FIRST_TOUCH:
            self._pinned.add(vpn)
        self._n_first_touch.value += 1
        self.engine.tail(fn, *args, pte_bits.make_pte(ppn))

    def _record_resident(self, vpn: int, gpu_id: int) -> None:
        """Directory bookkeeping: ``gpu_id`` is about to hold a valid
        mapping for ``vpn`` (§6.2 sets the access bit at fault-resolution
        replay time)."""
        if self.directory is not None and self.host_page_table.entry(vpn) is not None:
            self.directory.record_access(vpn, gpu_id)

    def note_transfw_mapping(self, vpn: int, gpu_id: int) -> None:
        """A Trans-FW forwarded translation gave ``gpu_id`` a valid remote
        mapping without driver involvement; keep the directory coherent."""
        self._record_resident(vpn, gpu_id)
        self.stats.counter("transfw_mappings").add()

    # ------------------------------------------------------------------
    # Access counters & migration triggers
    # ------------------------------------------------------------------

    def note_remote_access(self, gpu_id: int, vpn: int) -> None:
        """Hardware access counter tick for a remote data access."""
        if self.config.page_replication:
            return
        if self.config.migration_policy is not MigrationPolicy.ACCESS_COUNTER:
            return
        if vpn in self._pinned:
            return
        if self.counters.note_remote_access(vpn, gpu_id) and vpn not in self._migrating:
            self._migrating.add(vpn)
            self.engine.schedule(0, self._request_migration, gpu_id, vpn)

    def _request_migration(self, gpu_id: int, vpn: int) -> None:
        """GPU → driver migration request (§3.3 step 1), then migration."""
        self.interconnect.gpu_to_host(
            gpu_id, CONTROL_MESSAGE_BYTES, self._migration_requested, gpu_id, vpn
        )

    def _migration_requested(self, gpu_id: int, vpn: int) -> None:
        # The request's arrival: the ready queue is empty, so the
        # migration starts at once (Engine.tail).
        self._migrate(vpn, gpu_id, True, self._migrating.discard, vpn)

    # ------------------------------------------------------------------
    # Migration (§3.3 steps 2-4) with shootdown orchestration
    # ------------------------------------------------------------------

    def _migrate(self, vpn: int, dst: int, push_mapping: bool,
                 fn: Callable[..., None], *args: Any) -> None:
        """Migrate ``vpn`` to ``dst``; ``fn(*args)`` runs once the
        migration (or the one it found in flight) is over."""
        _Migration(self, vpn, dst, push_mapping, fn, args)

    # ------------------------------------------------------------------
    # Page replication (§7.4)
    # ------------------------------------------------------------------

    def _resolve_replicated(self, vpn: int, gpu_id: int, owner: int, word: int,
                            is_write: bool, fn: Callable[..., None], *args: Any) -> None:
        """Resolve a fault on a replicated page; ``fn(*args, word)`` runs
        with the mapping."""
        if not is_write:
            if self.replicas.has_replica(vpn, gpu_id):
                word = pte_bits.make_pte(self.replicas.replica_ppn(vpn, gpu_id), writable=False)
                self.engine.tail(fn, *args, word)
                return
            replica_ppn = self.gpus[gpu_id].memory.allocate(vpn)
            self.interconnect.gpu_to_gpu(
                owner, gpu_id, self.config.page_size,
                self._replicated, vpn, gpu_id, replica_ppn, fn, args,
            )
            return
        # Writes collapse all replicas back to the home copy (§7.4).
        self.engine.tail(
            self.collapse_replicas, vpn,
            self._write_collapsed, vpn, gpu_id, owner, word, fn, args,
        )

    def _replicated(self, vpn: int, gpu_id: int, replica_ppn: int,
                    fn: Callable[..., None], args: tuple) -> None:
        self.replicas.add_replica(vpn, gpu_id, replica_ppn)
        self._record_resident(vpn, gpu_id)
        self.stats.counter("replications").add()
        self.engine.tail(fn, *args, pte_bits.make_pte(replica_ppn, writable=False))

    def _write_collapsed(self, vpn: int, gpu_id: int, owner: int, word: int,
                         fn: Callable[..., None], args: tuple) -> None:
        self._record_resident(vpn, gpu_id)
        self.engine.tail(fn, *args, pte_bits.make_remote_pte(pte_bits.ppn(word), owner))

    def collapse_replicas(self, vpn: int, fn: Callable[..., None], *args: Any) -> None:
        """Invalidate and free every replica of ``vpn`` (write collapse);
        ``fn(*args)`` runs once every holder has acked."""
        replicas = self.replicas.collapse(vpn)
        if not replicas:
            self.engine.tail(fn, *args)
            return
        acked = Countdown(self.engine, len(replicas), self._collapsed, fn, args)
        for holder, replica_ppn in replicas.items():
            _Invalidation(self, holder, vpn, holder, acked.done)
            self.gpus[holder].memory.free(replica_ppn)

    def _collapsed(self, fn: Callable[..., None], args: tuple) -> None:
        self.stats.counter("replica_collapses").add()
        self.engine.tail(fn, *args)


# ----------------------------------------------------------------------
# Callback state machines
# ----------------------------------------------------------------------
#
# Each method is one state: it runs the work between two waits, then
# hands the next state to what it waits on as a continuation.  The first
# state runs inline, in the constructor (DESIGN.md §7.1).  A state that
# ends a machine hands its result on with Engine.tail.


class _FaultBatch:
    """One batch of far faults on a service slot: the fault-handling
    latency, then every fault's resolution, counted down; the slot is
    released once the last reply has reached its GPU."""

    __slots__ = ("driver", "faults")

    def __init__(self, driver: UVMDriver, faults: List[FarFault]) -> None:
        self.driver = driver
        self.faults = faults

    def granted(self) -> None:
        """A service slot is ours: start the batch, then go back for the
        next one."""
        driver = self.driver
        driver.engine.schedule(0, self._service)
        driver._next_batch()

    def _service(self) -> None:
        driver = self.driver
        driver.engine.defer(driver.config.uvm.fault_handling_latency, self._resolve)

    def _resolve(self) -> None:
        driver = self.driver
        resolved = Countdown(driver.engine, len(self.faults), driver._batch_slots.release)
        for fault in self.faults:
            _FaultResolution(driver, fault, resolved.done)


class _FaultResolution:
    """Resolve one batched far fault and reply to the faulting GPU.

    Resolution runs against the host page table (gate wait, host walk,
    then first touch, a local or remote mapping, replication or an
    on-touch migration); the reply crosses PCIe.  If the page migrated
    while the reply was in flight the mapping is stale, and the fault is
    re-resolved (at most :attr:`UVMDriver.MAX_REPLY_RETRIES` times,
    never migrating again); a GPU's refetch (``FarFault.retry``) never
    migrates either.  Once the GPU holds the reply, its continuation
    runs and the batch counts the fault resolved.
    """

    __slots__ = ("driver", "fault", "counted", "attempts", "generation", "word")

    def __init__(self, driver: UVMDriver, fault: FarFault, counted: Callable[[], None]) -> None:
        self.driver = driver
        self.fault = fault
        #: counts the fault resolved in its batch.
        self.counted = counted
        self.attempts = 0
        self.generation = 0
        self.word = 0
        self._attempt()

    def _attempt(self) -> None:
        driver = self.driver
        self.generation = driver._generation.get(self.fault.vpn, 0)
        gate = driver._gates.get(self.fault.vpn)
        if gate is not None:
            gate.wait(self._walk_host)
            return
        self._walk_host()

    def _walk_host(self) -> None:
        self.driver.host_walkers.request(self._host_walker)

    def _host_walker(self) -> None:
        driver = self.driver
        driver.engine.defer(driver.config.uvm.host_walk_latency, self._host_walked)

    def _host_walked(self) -> None:
        driver = self.driver
        fault = self.fault
        vpn, gpu_id = fault.vpn, fault.gpu_id
        driver.host_walkers.release()

        word = driver.host_page_table.translate(vpn)
        if word is None:
            driver.engine.tail(driver._first_touch, vpn, gpu_id, self._resolved)
            return

        owner = pte_owner(word)
        if owner == gpu_id:
            driver._record_resident(vpn, gpu_id)
            self._resolved(pte_bits.make_pte(pte_bits.ppn(word)))
            return

        if driver.config.page_replication:
            driver.engine.tail(
                driver._resolve_replicated, vpn, gpu_id, owner, word, fault.is_write,
                self._resolved,
            )
            return

        policy = driver.config.migration_policy
        if policy is MigrationPolicy.ON_TOUCH and not (self.attempts or fault.retry):
            self.word = word
            driver.engine.tail(driver._migrate, vpn, gpu_id, False, self._migrated)
            return
        self._remote_mapping(word)

    def _migrated(self) -> None:
        driver = self.driver
        vpn, gpu_id = self.fault.vpn, self.fault.gpu_id
        new_word = driver.host_page_table.translate(vpn)
        if new_word is not None and pte_owner(new_word) == gpu_id:
            self._resolved(pte_bits.make_pte(pte_bits.ppn(new_word)))
            return
        # Migration raced/failed; fall through to a remote mapping.
        self._remote_mapping(new_word if new_word is not None else self.word)

    def _remote_mapping(self, word: int) -> None:
        # first-touch (pinned) and access-counter: hand out a remote mapping.
        driver = self.driver
        driver._record_resident(self.fault.vpn, self.fault.gpu_id)
        driver._n_remote_mappings.value += 1
        owner = pte_owner(word)
        self._resolved(pte_bits.make_remote_pte(pte_bits.ppn(word), owner))

    def _resolved(self, word: int) -> None:
        """Reply with the resolved mapping over PCIe."""
        self.word = word
        self.driver.interconnect.host_to_gpu(
            self.fault.gpu_id, CONTROL_MESSAGE_BYTES, self._replied
        )

    def _replied(self) -> None:
        driver = self.driver
        fault = self.fault
        if driver._generation.get(fault.vpn, 0) != self.generation or fault.vpn in driver._gates:
            self.attempts += 1
            if self.attempts > driver.MAX_REPLY_RETRIES:
                # Accept the (possibly already-stale) mapping: the GPU
                # will simply fault again on its next shootdown.  Record
                # the pair so the invariant auditor knows this bounded
                # staleness was a counted decision, not a protocol leak.
                driver.stats.counter("stale_replies_accepted").add()
                driver._stale_accepted.add((fault.gpu_id, fault.vpn))
            else:
                # The page migrated underneath us: the resolved mapping
                # is stale; re-resolve rather than install it.
                driver.stats.counter("stale_replies_retried").add()
                self._attempt()
                return
        engine = driver.engine
        driver._t_fault.record(engine._now - fault.raised_at)
        if driver._tracer.enabled:
            driver._tracer.emit(
                "fault.resolve", driver.name, fault.vpn,
                gpu=fault.gpu_id, cycles=engine._now - fault.raised_at,
            )
        driver.gpus[fault.gpu_id].driver_busy -= 1
        # Two waiters, the GPU's continuation and then the batch count:
        # the first runs at once if the ready queue is empty (it would be
        # the next callback, with the batch count queued behind it).
        ready = engine._ready
        gpu_args = fault.args + (self.word,)
        if ready:
            ready.append((fault.fn, gpu_args))
            ready.append((self.counted, ()))
        else:
            ready.append((self.counted, ()))
            fault.fn(*gpu_args)


class _Migration:
    """One page migration (§3.3 steps 2-4) with its shootdown.

    The page's gate closes; the host walk invalidates the host PTE and,
    under a directory scheme, reads and clears the residency bits; the
    shootdown goes to the directory's holders once the host walk is done
    (IDYLL, directory), to every GPU in parallel with it (broadcast), or
    is instantaneous (zero latency).  Acks are counted down; then the
    page moves, the mapping is pushed to the destination if asked, the
    gate opens and ``fn(*args)`` runs.  A migration that finds the page
    already migrating waits for that one's gate instead.
    """

    __slots__ = (
        "driver", "vpn", "dst", "push_mapping", "fn", "args", "src", "old_ppn",
        "new_ppn", "gate", "t_request", "waiting", "acked",
    )

    def __init__(self, driver: UVMDriver, vpn: int, dst: int, push_mapping: bool,
                 fn: Callable[..., None], args: tuple) -> None:
        self.driver = driver
        self.vpn = vpn
        self.dst = dst
        self.push_mapping = push_mapping
        self.fn = fn
        self.args = args
        self._start()

    def _done(self) -> None:
        self.driver.engine.tail(self.fn, *self.args)

    def _start(self) -> None:
        driver = self.driver
        vpn, dst = self.vpn, self.dst
        gate = driver._gates.get(vpn)
        if gate is not None:
            gate.wait(self._done)
            return
        word = driver.host_page_table.translate(vpn)
        if word is None:
            self._done()
            return
        old_ppn = self.old_ppn = pte_bits.ppn(word)
        src = self.src = pte_owner(word)
        if src == dst:
            self._done()
            return

        self.gate = driver._gates[vpn] = Gate(driver.engine)
        # Per-GPU park gauges: both endpoints of the migration are busy
        # until the gate reopens (the page's TLB holders are shot down
        # individually via the invalidation gauges above).
        driver.gpus[src].driver_busy += 1
        driver.gpus[dst].driver_busy += 1
        self.t_request = driver.engine._now
        driver._n_migrations.value += 1
        if driver._tracer.enabled:
            driver._tracer.emit("mig.start", driver.name, vpn, src=src, dst=dst)
        scheme = driver.config.invalidation_scheme

        driver.engine.schedule(0, self._host_walk)
        if scheme is InvalidationScheme.ZERO_LATENCY:
            # Ideal: every GPU's PTE updated instantaneously, no contention.
            for gpu in driver.gpus:
                gpu.apply_instant_invalidation(vpn)
        elif scheme not in _DIRECTORY_SCHEMES:
            # Baseline: broadcast immediately, in parallel with the host
            # walk, which counts as one more ack.
            num_gpus = driver.config.num_gpus
            self.acked = Countdown(driver.engine, 1 + num_gpus, self._invalidated)
            for g in range(num_gpus):
                _Invalidation(driver, g, vpn, dst, self.acked.done)

    def _host_walk(self) -> None:
        """Host-side PT walk that invalidates the mapping and (under
        IDYLL) reads + clears the directory bits."""
        self.driver.host_walkers.request(self._host_walker)

    def _host_walker(self) -> None:
        driver = self.driver
        vpn = self.vpn
        latency = driver.config.uvm.host_walk_latency
        holders: Optional[List[int]] = None
        directory = driver.directory
        if directory is not None:
            if isinstance(directory, VMTableDirectory):
                # VM-Cache probe runs in parallel with the walk (§6.4).
                latency = max(latency, directory.lookup_latency_for(vpn))
            holders = directory.holders(vpn)
            directory.clear(vpn)
        driver.engine.defer(latency, self._host_walked, holders)

    def _host_walked(self, holders: Optional[List[int]]) -> None:
        driver = self.driver
        driver.host_page_table.invalidate(self.vpn)
        driver.host_walkers.release()
        scheme = driver.config.invalidation_scheme
        if scheme is InvalidationScheme.ZERO_LATENCY:
            driver.engine.tail(self._invalidated)
        elif scheme in _DIRECTORY_SCHEMES:
            # The shootdown had to wait for the access bits (§6.2).
            driver.engine.tail(self._shoot_down, holders)
        else:
            driver.engine.tail(self.acked.done)

    def _shoot_down(self, holders: Optional[List[int]]) -> None:
        driver = self.driver
        vpn = self.vpn
        targets = list(holders or [])
        if driver.tracker.suspects:
            # Graceful degradation: a GPU whose directory state is
            # suspect (repeated ack timeouts) is shot down whether or
            # not the directory filter names it, until it recovers.
            extra = sorted(driver.tracker.suspects.difference(targets))
            if extra:
                targets.extend(extra)
                driver.stats.counter("inval_degraded").add(len(extra))
                if driver._tracer.enabled:
                    driver._tracer.emit("inval.degrade", driver.name, vpn, gpus=extra)
        if not targets:
            driver.engine.tail(self._invalidated)
            return
        acked = Countdown(driver.engine, len(targets), self._invalidated)
        for g in targets:
            _Invalidation(driver, g, vpn, self.dst, acked.done)

    def _invalidated(self) -> None:
        driver = self.driver
        self.waiting = driver.engine._now - self.t_request
        driver._t_migration_waiting.record(self.waiting)
        # §3.3 step 4: the actual data transfer.
        self.new_ppn = driver.gpus[self.dst].memory.allocate(self.vpn)
        driver.interconnect.gpu_to_gpu(self.src, self.dst, driver.config.page_size, self._moved)

    def _moved(self) -> None:
        driver = self.driver
        vpn = self.vpn
        driver.gpus[self.src].memory.free(self.old_ppn)
        driver.host_page_table.set_entry(vpn, pte_bits.make_pte(self.new_ppn))
        driver._record_resident(vpn, self.dst)
        driver.counters.reset_page(vpn)
        if self.push_mapping:
            driver.interconnect.host_to_gpu(self.dst, CONTROL_MESSAGE_BYTES, self._push)
            return
        self._finish()

    def _push(self) -> None:
        self.driver.gpus[self.dst].deliver_mapping(
            self.vpn, pte_bits.make_pte(self.new_ppn), self._finish
        )

    def _finish(self) -> None:
        driver = self.driver
        vpn, src, dst = self.vpn, self.src, self.dst
        engine = driver.engine
        driver._t_migration_total.record(engine._now - self.t_request)
        if driver._tracer.enabled:
            driver._tracer.emit(
                "mig.done", driver.name, vpn,
                src=src, dst=dst, waited=self.waiting, cycles=engine._now - self.t_request,
            )
        driver._generation[vpn] = driver._generation.get(vpn, 0) + 1
        driver.gpus[src].driver_busy -= 1
        driver.gpus[dst].driver_busy -= 1
        del driver._gates[vpn]
        self.gate.open()
        self._done()


class _Invalidation:
    """One shootdown round trip (§3.3 steps 2-3): the request over PCIe,
    the GPU's apply and ack, the ack home.

    Each is one :class:`~repro.uvm.protocol.InvalidationTracker` record:
    a sequence number, an ack applied idempotently, and the suspect
    bookkeeping.  ``fn(*args)`` runs when the first surviving ack
    reaches the driver; the GPU's ``driver_busy`` gauge drops just
    before.

    Without a fault injector every message arrives, so an attempt is one
    request and one ack.  With one, each request and ack copy draws a
    message plan (drop, delay, duplicate) and each attempt arms a retry
    timer.  A timer that finds its invalidation acked returns at once;
    otherwise the next attempt goes out under a backed-off timeout, and
    after ``max_retries`` the GPU is marked suspect and the invalidation
    abandoned unacked: its migration stalls until a late ack arrives or
    the liveness watchdog turns the loss into a diagnosed abort, rather
    than letting a possibly-stale GPU proceed.
    """

    __slots__ = ("driver", "pending", "dst", "fn", "args")

    def __init__(self, driver: UVMDriver, gpu_id: int, vpn: int, dst: int,
                 fn: Callable[..., None], *args: Any) -> None:
        self.driver = driver
        self.dst = dst
        self.fn = fn
        self.args = args
        pending = self.pending = driver.tracker.begin(gpu_id, vpn)
        driver.gpus[gpu_id].driver_busy += 1
        driver._n_invalidations_sent.value += 1
        if driver._tracer.enabled:
            driver._tracer.emit("inval.send", driver.name, vpn, gpu=gpu_id, iseq=pending.seq)
        self._attempt()

    def _plan(self, tag: str, direction: str):
        """The fate of one message copy on the target's PCIe link;
        every copy arrives intact without a fault injector."""
        injector = self.driver.injector
        if injector is None:
            return CLEAN_PLAN
        return injector.message_plan(tag, link=f"pcie{self.pending.gpu_id}.{direction}")

    def _attempt(self) -> None:
        driver = self.driver
        plan = self._plan("inval_req", "down")
        self._request(plan)
        if plan.duplicate:
            self._request(self._plan("inval_req_copy", "down"))
        if driver.injector is not None:
            driver.engine.schedule(
                driver.config.faults.retry_timeout(self.pending.attempts), self._timed_out
            )

    def _trace_faults(self, plan, leg: str) -> None:
        if not plan.clean and self.driver._tracer.enabled:
            pending = self.pending
            self.driver._tracer.emit(
                "fault.inject", self.driver.name, pending.vpn,
                gpu=pending.gpu_id, iseq=pending.seq, leg=leg, kinds=",".join(plan.kinds),
            )

    def _request(self, plan) -> None:
        """Send one copy of the request packet."""
        self._trace_faults(plan, "req")
        if plan.drop:
            return
        self.driver.interconnect.host_to_gpu(
            self.pending.gpu_id, CONTROL_MESSAGE_BYTES, self._delivered, extra_delay=plan.delay
        )

    def _delivered(self) -> None:
        pending = self.pending
        self.driver.gpus[pending.gpu_id].receive_invalidation(
            pending.vpn, self.dst, pending, self._acked
        )

    def _acked(self) -> None:
        """The GPU acked one request copy: carry the ack home."""
        plan = self._plan("inval_ack", "up")
        self._trace_faults(plan, "ack")
        if plan.drop:
            return
        interconnect = self.driver.interconnect
        gpu_id = self.pending.gpu_id
        interconnect.gpu_to_host(
            gpu_id, CONTROL_MESSAGE_BYTES, self._ack_home, extra_delay=plan.delay
        )
        if plan.duplicate:
            interconnect.gpu_to_host(gpu_id, CONTROL_MESSAGE_BYTES, self._ack_home)

    def _ack_home(self) -> None:
        driver = self.driver
        pending = self.pending
        if not pending.acked:
            if driver._tracer.enabled:
                driver._tracer.emit(
                    "inval.ack", driver.name, pending.vpn,
                    gpu=pending.gpu_id, iseq=pending.seq, attempt=pending.attempts,
                )
            driver.gpus[pending.gpu_id].driver_busy -= 1
        if driver.tracker.deliver_ack(pending):
            driver.engine.tail(self.fn, *self.args)

    def _timed_out(self) -> None:
        """The current attempt's retry timer: retry, or give up."""
        pending = self.pending
        if pending.acked:
            return
        driver = self.driver
        tracer = driver._tracer
        gpu_id, vpn = pending.gpu_id, pending.vpn
        driver.stats.counter("inval_timeouts").add()
        if tracer.enabled:
            tracer.emit(
                "inval.timeout", driver.name, vpn,
                gpu=gpu_id, iseq=pending.seq, attempt=pending.attempts,
            )
        if pending.attempts == driver.config.faults.max_retries:
            driver.tracker.abandon(pending)
            driver.stats.counter("inval_abandoned").add()
            if tracer.enabled:
                tracer.emit("inval.abandon", driver.name, vpn, gpu=gpu_id, iseq=pending.seq)
            return
        pending.attempts += 1
        driver.stats.counter("inval_retries").add()
        driver.tracker.note_retry(gpu_id)
        if tracer.enabled:
            tracer.emit(
                "inval.retry", driver.name, vpn,
                gpu=gpu_id, iseq=pending.seq, attempt=pending.attempts,
            )
        self._attempt()
