"""Multi-GPU system assembly and the simulation entry point.

:class:`MultiGPUSystem` wires the engine, interconnect, UVM driver, and
GPUs together from one :class:`~repro.config.SystemConfig`, then
:meth:`run` replays a workload and returns a
:class:`~repro.metrics.collector.SimulationResult`.

When the config's :class:`~repro.config.FaultConfig` injects faults,
the system additionally builds the seeded
:class:`~repro.faults.injector.FaultInjector`, arms the liveness
watchdog, and runs the invariant auditors — so a faulted run either
completes with consistent translation state or aborts loudly with a
protocol-state dump (never hangs, never silently serves stale data).
"""

from __future__ import annotations

import gc

from ..config import SystemConfig
from ..faults.auditor import AuditLoop, InvariantViolation, audit_system, protocol_dump
from ..faults.injector import FaultInjector
from ..faults.schedule import ChaosController, FaultTimeline, ScheduledFaultInjector
from ..interconnect.topology import Interconnect
from ..memory.address import AddressLayout
from ..sim.engine import Engine, LivenessWatchdog, SimulationAbort, WatchdogError
from ..sim.process import Countdown
from ..uvm.driver import UVMDriver
from .cu import Lane
from .gpu import GPU

__all__ = ["MultiGPUSystem"]

#: 2 MB and larger pages use a shallower tree (the leaf level folds into
#: the page offset, as on x86-64).
LARGE_PAGE_THRESHOLD = 2 * 1024 * 1024

#: a run this large leaves enough behind to be worth a full garbage
#: collection (a few ms) before the next system is built; a warm-up or
#: a unit test's run does not.
_COLLECT_AFTER_ACCESSES = 1000


class MultiGPUSystem:
    """A configured multi-GPU machine ready to replay workloads.

    Pass ``tracer`` (a :class:`~repro.sim.trace.TraceRecorder`) to record
    the full event trace of the run; tracing is off (and free) otherwise.
    """

    #: a large run finished since the last collection (see ``__init__``).
    _collect_pending = False

    def __init__(self, config: SystemConfig, seed: int = 7, tracer=None) -> None:
        if MultiGPUSystem._collect_pending:
            # A system that has run is a cyclic object graph (the driver
            # and its GPUs refer to each other, and so do a link and its
            # interconnect), so only a full collection frees it.  The
            # event path allocates too few objects to trigger one often,
            # so a process that runs systems one after another would hold
            # several dead ones at once: free them before building anew.
            MultiGPUSystem._collect_pending = False
            gc.collect()
        self.config = config
        self.seed = seed
        self.engine = Engine(tracer=tracer)
        self.tracer = self.engine.tracer
        #: failure-trace timeline (chaos campaigns); None without a trace.
        #: A trace with zero episodes builds no injector at all, so such
        #: a run is trivially byte-identical to an unfaulted one.
        self.timeline = None
        if config.chaos_trace is not None and config.chaos_trace.episodes:
            self.timeline = FaultTimeline(config.chaos_trace)
            self.injector = ScheduledFaultInjector(
                config.faults, seed, self.timeline, self.engine,
                tracer=self.engine.tracer,
            )
        elif config.faults.enabled:
            self.injector = FaultInjector(config.faults, seed, tracer=self.engine.tracer)
        else:
            self.injector = None
        levels = 3 if config.page_size >= LARGE_PAGE_THRESHOLD else 4
        self.layout = AddressLayout(config.page_size, levels=levels)
        self.interconnect = Interconnect(self.engine, config.interconnect, config.num_gpus)
        if isinstance(self.injector, ScheduledFaultInjector):
            self.injector.interconnect = self.interconnect
            self.interconnect.chaos = self.injector
        self.driver = UVMDriver(
            self.engine, config, self.interconnect, self.layout, injector=self.injector
        )
        self.gpus = [
            GPU(
                self.engine, g, config, self.layout, self.interconnect,
                self.driver, seed, injector=self.injector,
            )
            for g in range(config.num_gpus)
        ]
        self.driver.attach_gpus(self.gpus)
        #: batched replay tier (tentpole of the two-tier replay core).
        #: Constructed only when nothing needs per-access event fidelity:
        #: tracing auto-degrades to the pure event path (golden traces
        #: stay byte-identical by construction), and fault injection,
        #: page replication and Trans-FW keep per-access state the
        #: replay predicate does not model.
        self.fastpath = None
        if (
            config.fastpath_enabled
            and not self.tracer.enabled
            and (self.injector is None or self.injector.fastpath_safe)
            and not config.page_replication
            and not config.transfw_enabled
        ):
            from .fastpath import FastPath

            self.fastpath = FastPath(self.engine, config, self.driver)
            for gpu in self.gpus:
                gpu.fastpath = self.fastpath
        self.finish_time: int = 0
        #: abort state, populated by :meth:`run` when a watchdog or
        #: auditor terminates the simulation early.
        self.aborted: bool = False
        self.abort_reason: str = ""
        self.abort_dump: str = ""
        self.audits_run: int = 0
        # Run-time registries (populated by run()/restore): checkpointing
        # classifies calendar entries by the identity of these objects.
        self._lanes: list = []
        #: every lane has retired (see _lanes_retired).
        self._master_done: bool = False
        self._watchdog = None
        self._auditor = None
        self._controller = None
        #: chaos campaign supervisor (spawned with the other supervisors
        #: when a failure-trace timeline is armed).
        self.chaos = None

    # ------------------------------------------------------------------
    # Liveness / consistency hooks
    # ------------------------------------------------------------------

    def _progress_metric(self) -> int:
        """Monotonic forward-progress count sampled by the watchdog.

        Retries and timeouts count: a protocol that is still retrying is
        making (bounded) progress; only a truly wedged system flatlines.
        """
        total = 0
        for gpu in self.gpus:
            counters = gpu.stats
            total += counters.counter("accesses_completed").value
            total += counters.counter("far_faults").value
            total += counters.counter("inval_received.necessary").value
            total += counters.counter("inval_received.unnecessary").value
        driver_stats = self.driver.stats
        for name in (
            "far_faults", "migrations", "invalidations_sent",
            "inval_retries", "inval_timeouts",
        ):
            total += driver_stats.counter(name).value
        return total

    def run(self, workload, checkpoint_every=None, checkpoint_dir=None) -> "SimulationResult":
        """Replay ``workload`` to completion; returns collected metrics.

        The reported execution time is the cycle at which every lane has
        retired its whole trace (in-flight background work — fault
        batches, lazy writebacks — is drained afterwards but does not
        extend the application's end-to-end time).

        On a watchdog or auditor abort the partial statistics are still
        collected; the result is marked ``aborted`` and carries the
        protocol-state dump instead of silently losing the run.

        ``checkpoint_every``/``checkpoint_dir`` arm the periodic
        checkpoint controller (see :mod:`repro.sim.snapshot`).
        """
        if len(workload.traces) != self.config.num_gpus:
            raise ValueError(
                f"workload has {len(workload.traces)} GPU traces, "
                f"system has {self.config.num_gpus} GPUs"
            )
        done = self._end_after(sum(map(len, workload.traces)))
        for gpu, gpu_traces in zip(self.gpus, workload.traces):
            for lane_id, trace in enumerate(gpu_traces):
                if lane_id >= self.config.trace_lanes:
                    raise ValueError("workload has more lanes than config.trace_lanes")
                lane = Lane(gpu, lane_id, trace, done)
                self.engine.schedule(0, lane.start)
                self._lanes.append(lane)
            gpu.attach_lanes(len(gpu_traces))

        for _name, supervisor in self._spawn_supervisors():
            supervisor.start()
        if checkpoint_every:
            from ..sim.snapshot import CheckpointController

            self._controller = CheckpointController(
                self, workload, checkpoint_every, checkpoint_dir
            )
        return self._finish(workload)

    def _end_after(self, lanes: int):
        """The callback each of ``lanes`` running lanes makes as it
        retires: the last one ends the run.  With no lane to wait for,
        the run ends from the ready queue."""
        if not lanes:
            self.engine.schedule(0, self._lanes_retired)
        return Countdown(self.engine, lanes, self._lanes_retired).done

    def _lanes_retired(self) -> None:
        """Records end-to-end time once every lane retires."""
        self.finish_time = self.engine.now
        self._master_done = True
        for gpu in self.gpus:
            if gpu.lazy is not None:
                gpu.lazy.stop()

    def still_active(self) -> bool:
        """Lanes still running, or invalidations still unacked."""
        return not self._master_done or self.driver.tracker.has_pending()

    def _spawn_supervisors(self, watchdog: bool = True, audit: bool = True,
                           chaos: bool = True) -> list:
        """Build the watchdog, periodic auditor, and chaos-campaign
        controller per the fault config / failure-trace timeline, and
        return the ones built as ``(name, supervisor)`` pairs in start
        order.  A fresh run starts each; checkpoint restore puts a
        supervisor's pending tick back at its calendar key instead.

        ``watchdog``/``audit``/``chaos`` let a restore skip a supervisor
        that had already lapsed at snapshot time.
        """
        faults = self.config.faults
        built = []
        if watchdog and faults.watchdog_active:
            self._watchdog = LivenessWatchdog(
                self.engine,
                interval=faults.watchdog_interval,
                stall_window=faults.watchdog_stall_window,
                progress_fn=self._progress_metric,
                dump_fn=self._protocol_dump,
                deadline_fn=self._deadline_violation,
                active_fn=self.still_active,
            )
            built.append(("watchdog", self._watchdog))
        if audit and faults.audit_interval > 0:
            self._auditor = AuditLoop(self, faults.audit_interval, self.still_active)
            built.append(("audit", self._auditor))
        if chaos and self.timeline is not None:
            self.chaos = ChaosController(self, self.timeline)
            built.append(("chaos", self.chaos))
        return built

    def _protocol_dump(self) -> str:
        return protocol_dump(self)

    def _deadline_violation(self):
        return self.driver.tracker.deadline_violation(self.config.faults.ack_deadline)

    def _finish(self, workload) -> "SimulationResult":
        if workload.total_accesses() >= _COLLECT_AFTER_ACCESSES:
            MultiGPUSystem._collect_pending = True
        faults = self.config.faults
        try:
            self.engine.run()
            if not self._master_done:
                # The calendar drained with lanes still blocked: an
                # outright deadlock (e.g. a lost ack with the watchdog
                # disabled).  Refuse to report it as a completed run.
                raise WatchdogError(
                    "simulation deadlocked: event calendar drained before "
                    "all lanes retired",
                    dump=protocol_dump(self),
                )
            if faults.quiesce_audit_active:
                self.audits_run += 1
                violations = audit_system(self)
                if violations:
                    raise InvariantViolation(
                        "quiesce audit failed: " + violations[0]
                        + (f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""),
                        dump=protocol_dump(self, violations),
                    )
        except SimulationAbort as abort:
            self.aborted = True
            self.abort_reason = str(abort)
            self.abort_dump = abort.dump
            if not self._master_done:
                self.finish_time = self.engine.now
            if self._controller is not None:
                # Best-effort emergency checkpoint next to the periodic
                # ones, so an aborted run can be re-examined or resumed
                # (with faults disabled) from its last consistent state.
                self._controller.write_emergency(workload)

        if self.chaos is not None:
            # A run can finish (or abort) between controller polls; close
            # the campaign's straggler episode records at this instant.
            self.chaos.finalize()

        from ..metrics.collector import collect

        return collect(self, workload)
