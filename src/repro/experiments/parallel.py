"""Supervised parallel sweep execution.

A figure is a grid of independent ``(app, config, scale)`` simulations;
nothing about them shares state, so they fan out across processes
perfectly.  :class:`ParallelRunner` is a drop-in
:class:`~repro.experiments.runner.ExperimentRunner` that adds:

* :meth:`~ParallelRunner.run_many` — execute a grid across supervised
  worker processes (``spawn`` context: safe on every platform and
  immune to fork-vs-thread deadlocks), deduplicating repeated requests
  and filling both the in-memory memo and the on-disk
  :class:`~repro.experiments.cache.ResultCache`;
* :meth:`~ParallelRunner.run_figure` — run one figure function with a
  *discovery pass* first: the figure is executed against a recording
  runner that hands back placeholder results while noting every run it
  asks for, the noted grid is executed in parallel, and the figure is
  then re-run for real against warm caches.

Supervision (:class:`SweepSupervisor`) is what makes long sweeps
crash-safe rather than merely parallel:

* each worker owns a private task queue and posts ``start`` /
  heartbeat / ``done`` / ``error`` messages on a shared result queue;
* a worker that dies (OOM kill, segfault, SIGKILL) is detected via
  ``Process.is_alive``, its in-flight task is retried elsewhere, and a
  replacement worker is spawned;
* a worker that *hangs* (no heartbeat within the grace window, or a
  task overrunning its deadline) is killed and treated the same way;
* failing tasks retry with exponential backoff and are quarantined
  after ``max_attempts`` strikes — the sweep returns an ``aborted``
  placeholder for the poison task instead of losing everything else;
* every outcome is appended to a per-sweep
  :class:`~repro.experiments.journal.SweepJournal` next to the result
  cache, and completed results land in the cache immediately, so an
  interrupted sweep resumes from journal + cache
  (``repro figure --resume-sweep``) without redoing finished work;
* SIGINT/SIGTERM trigger a graceful drain — no new dispatches, a
  bounded wait for in-flight tasks, then explicit terminate → join →
  kill of every worker (no orphans), and :class:`SweepInterrupted`
  tells the caller the sweep is resumable.

Results are identical to serial execution: workers funnel through the
same :func:`repro.experiments.runner.simulate` entry point with the
same explicit parameters, and the simulator is deterministic in those
parameters.  Worker count comes from ``jobs=``, else ``REPRO_JOBS``,
else 1 (serial).

The supervisor doubles as the per-host engine of the distributed sweep
fabric (:mod:`repro.experiments.fabric`): besides the one-shot
:meth:`SweepSupervisor.run`, it exposes an incremental API —
:meth:`~SweepSupervisor.start` / :meth:`~SweepSupervisor.submit` /
:meth:`~SweepSupervisor.step` / :meth:`~SweepSupervisor.shutdown` —
plus :meth:`~SweepSupervisor.revoke` (give back not-yet-started tasks
to a work-stealing peer) and :meth:`~SweepSupervisor.preempt` (kill a
running task and hand back its latest RCKP checkpoint so the
coordinator can resume it byte-equal on another host).  Tasks may
carry checkpoint policy (``checkpoint_every`` / ``checkpoint_dir`` /
``resume_from``), which flows through to
:func:`repro.experiments.runner.simulate` untouched — checkpoint knobs
are deliberately not cache-key inputs.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..metrics.collector import SimulationResult
from . import runner as _runner_mod
from .cache import ResultCache
from .journal import SweepJournal, journal_path, merged_terminal_keys
from .runner import ExperimentRunner, _env_int

__all__ = ["ParallelRunner", "SweepInterrupted", "SweepSupervisor"]

#: one grid entry: (app, config, scale).
Request = Tuple[str, SystemConfig, float]

#: result-queue message that carries nothing (see SweepSupervisor.wake).
_WAKE = ("wake", None, None, None)


class SweepInterrupted(RuntimeError):
    """A supervised sweep was stopped by SIGINT/SIGTERM after a graceful
    drain.  Completed tasks are already journaled and cached; re-running
    the sweep (``repro figure --resume-sweep``) continues from there."""


def _simulate_job(job: Tuple) -> SimulationResult:
    """Worker task body: module-level so ``spawn`` can pickle it.

    ``job`` is ``(app, config, scale, lanes, accesses_per_lane, seed)``
    optionally followed by ``(checkpoint_every, checkpoint_dir,
    resume_from)`` for migratable fabric tasks."""
    app, config, scale, lanes, accesses_per_lane, seed = job[:6]
    ckpt_every, ckpt_dir, resume_from = (
        job[6:9] if len(job) > 6 else (None, None, None)
    )
    return _runner_mod.simulate(
        app,
        config,
        scale=scale,
        lanes=lanes,
        accesses_per_lane=accesses_per_lane,
        seed=seed,
        checkpoint_every=ckpt_every,
        checkpoint_dir=ckpt_dir,
        resume_from=resume_from,
    )


def _parent_watchdog(supervisor_pid: int) -> None:
    """Hard-exit when our supervisor dies: a host agent SIGKILLed by a
    chaos drill (or a real crash) must not leak grandchildren that keep
    burning CPU on a sweep nobody will collect.  Polling ``getppid``
    beats prctl(PR_SET_PDEATHSIG) here because it is portable.

    The supervisor's pid comes in with the spawn arguments rather than
    from ``getppid`` at thread start: a worker whose supervisor died
    before this thread first ran is already re-parented, and must exit
    at the first check instead of adopting its new parent."""
    while os.getppid() == supervisor_pid:
        time.sleep(1.0)
    os._exit(1)


def _worker_main(worker_id: int, task_queue, result_queue,
                 heartbeat_interval: float, supervisor_pid: int) -> None:
    """Supervised worker loop: take tasks, emit heartbeats, post results.

    Workers ignore SIGINT so a ^C lands on the supervisor alone, which
    drains gracefully and then terminates us explicitly — the fix for
    the classic orphaned-pool-worker failure mode.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    threading.Thread(target=_parent_watchdog, args=(supervisor_pid,), daemon=True).start()
    while True:
        task = task_queue.get()
        if task is None:
            return
        key = task[0]
        result_queue.put(("start", worker_id, key, None))
        stop_beats = threading.Event()

        def beat() -> None:
            while not stop_beats.wait(heartbeat_interval):
                try:
                    result_queue.put(("hb", worker_id, key, None))
                except Exception:  # pragma: no cover - queue torn down
                    return

        beats = threading.Thread(target=beat, daemon=True)
        beats.start()
        try:
            result = _simulate_job(task[1:])
        except BaseException as exc:
            stop_beats.set()
            result_queue.put(
                ("error", worker_id, key, f"{type(exc).__name__}: {exc}")
            )
        else:
            stop_beats.set()
            result_queue.put(("done", worker_id, key, result))
        beats.join()


def _quarantine_result(app: str, config: SystemConfig, reason: str) -> SimulationResult:
    """Aborted placeholder standing in for a quarantined poison task.

    Metrics are harmless non-zero scalars (same convention as the
    discovery-pass placeholder) so figure arithmetic cannot divide by
    zero; ``aborted``/``abort_reason`` carry the real story.
    """
    return SimulationResult(
        workload=app,
        scheme=config.invalidation_scheme.value,
        num_gpus=config.num_gpus,
        exec_time=1,
        instructions=1000,
        accesses=1,
        aborted=True,
        abort_reason=f"quarantined: {reason}",
    )


def _placeholder_result(app: str, config: SystemConfig) -> SimulationResult:
    """Inert result for the discovery pass; every metric is a harmless
    non-zero scalar so ratio arithmetic in figure code cannot divide by
    zero."""
    return SimulationResult(
        workload=app,
        scheme=config.invalidation_scheme.value,
        num_gpus=config.num_gpus,
        exec_time=1,
        instructions=1000,
        accesses=1,
    )


class _Task:
    """Supervisor-side state for one grid entry."""

    __slots__ = ("key", "app", "config", "scale", "status", "attempts",
                 "not_before", "result", "ckpt_every", "ckpt_dir",
                 "resume_from", "lanes", "accesses_per_lane", "seed")

    def __init__(
        self,
        key: str,
        app: str,
        config: SystemConfig,
        scale: float,
        *,
        ckpt_every: Optional[int] = None,
        ckpt_dir: Optional[str] = None,
        resume_from: Optional[str] = None,
        lanes: Optional[int] = None,
        accesses_per_lane: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.key = key
        self.app = app
        self.config = config
        self.scale = scale
        self.status = "pending"  # pending | running | done | quarantined
        self.attempts = 0
        self.not_before = 0.0
        self.result: Optional[SimulationResult] = None
        self.ckpt_every = ckpt_every
        self.ckpt_dir = ckpt_dir
        self.resume_from = resume_from
        # Per-task trace-shape overrides (None = the supervisor-wide
        # value): a job service mixes differently-shaped runs in one
        # worker pool, unlike a figure sweep's homogeneous grid.
        self.lanes = lanes
        self.accesses_per_lane = accesses_per_lane
        self.seed = seed


class _Worker:
    """Supervisor-side handle for one worker process."""

    __slots__ = ("proc", "queue", "task_key", "assigned_at", "last_beat")

    def __init__(self, proc, queue) -> None:
        self.proc = proc
        self.queue = queue
        self.task_key: Optional[str] = None
        self.assigned_at = 0.0
        self.last_beat = 0.0


class SweepSupervisor:
    """Fault-tolerant scheduler for a grid of independent simulations.

    Owns the worker fleet for one :meth:`run` call; see the module
    docstring for the supervision contract.  ``cache`` and ``journal``
    are optional — without them results only live in the returned dict.
    """

    #: result-queue poll interval (seconds): the supervisor's tick.
    TICK = 0.05

    def __init__(
        self,
        *,
        jobs: int,
        lanes: int,
        accesses_per_lane: int,
        seed: int,
        cache: Optional[ResultCache] = None,
        journal: Optional[SweepJournal] = None,
        max_attempts: int = 3,
        task_deadline: Optional[float] = None,
        heartbeat_interval: float = 0.5,
        heartbeat_grace: Optional[float] = None,
        backoff_base: float = 0.25,
        drain_timeout: float = 5.0,
        terminate_grace: float = 5.0,
        heartbeat_events: bool = False,
    ) -> None:
        self.jobs = jobs
        self.lanes = lanes
        self.accesses_per_lane = accesses_per_lane
        self.seed = seed
        self.cache = cache
        self.journal = journal
        self.max_attempts = max(1, max_attempts)
        self.task_deadline = (
            task_deadline
            if task_deadline is not None
            else float(_env_int("REPRO_TASK_DEADLINE", 600))
        )
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_grace = (
            heartbeat_grace
            if heartbeat_grace is not None
            else max(10.0 * heartbeat_interval, 5.0)
        )
        self.backoff_base = backoff_base
        self.drain_timeout = drain_timeout
        self.terminate_grace = terminate_grace
        #: surface worker heartbeats as ("hb", key) events from
        #: :meth:`step` — liveness progress for an embedding job
        #: service's event stream.  Off by default: sweep consumers only
        #: care about terminal outcomes.
        self.heartbeat_events = heartbeat_events
        # Introspection counters (tests and progress reporting).
        self.failures = 0
        self.worker_deaths = 0
        #: spawns that replaced a worker retired by death, hang or
        #: preemption (a pool's first spawns are not respawns).
        self.respawns = 0
        self._unreplaced = 0
        self.quarantined = 0
        self._workers: Dict[int, _Worker] = {}
        self._next_worker = 0
        self._ctx = None
        self._result_queue = None
        self._stop = False
        self._stop_at = 0.0
        #: incremental-mode task table and event outbox (fabric agents).
        self._state: Dict[str, _Task] = {}
        self._events: List[tuple] = []

    # -- public --------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the sweep to drain and stop (signal handlers call this)."""
        if not self._stop:
            self._stop = True
            self._stop_at = time.monotonic()

    def wake(self) -> None:
        """End the current :meth:`step`'s wait for a worker message now
        rather than after ``TICK``: an embedding service calls this when
        it has admitted work or is closing.  Callable from any thread
        but not from a signal handler (the queue takes a lock); a no-op
        before :meth:`start` and after :meth:`shutdown`, including one
        that races this call."""
        result_queue = self._result_queue
        if result_queue is None:
            return
        try:
            result_queue.put_nowait(_WAKE)
        except ValueError:  # closed by a concurrent shutdown
            pass

    def run(self, tasks: Sequence[Tuple[str, str, SystemConfig, float]]
            ) -> Dict[str, SimulationResult]:
        """Execute ``(key, app, config, scale)`` tasks; returns
        ``key -> result`` with every task either done or quarantined.

        Raises :class:`SweepInterrupted` if a signal stopped the sweep
        before all tasks reached a terminal state.
        """
        self.start()
        state = self._state
        for key, app, config, scale in tasks:
            self.submit(key, app, config, scale)
        restore = self._install_signal_handlers()
        try:
            for _ in range(min(self.jobs, len(state))):
                self._spawn_worker()
            while True:
                open_tasks = [
                    t for t in state.values() if t.status in ("pending", "running")
                ]
                if not open_tasks:
                    break
                if self._stop:
                    running = any(t.status == "running" for t in state.values())
                    drained = time.monotonic() > self._stop_at + self.drain_timeout
                    if not running or drained:
                        break
                self.step(respawn=not self._stop)
        finally:
            self._restore_signal_handlers(restore)
            self.shutdown()
        remaining = sum(
            1 for t in state.values() if t.status in ("pending", "running")
        )
        if remaining:
            done = sum(1 for t in state.values() if t.status == "done")
            raise SweepInterrupted(
                f"sweep interrupted with {remaining} task(s) unfinished "
                f"({done}/{len(state)} done, journaled and cached); "
                f"re-run with --resume-sweep to continue"
            )
        return {key: task.result for key, task in state.items()}

    # -- incremental API (fabric host agents) --------------------------------

    def start(self) -> None:
        """Bring up the spawn context and result queue; tasks arrive via
        :meth:`submit` and progress happens in :meth:`step` calls.  Does
        not install signal handlers — an embedding agent owns those."""
        self._ctx = multiprocessing.get_context("spawn")
        self._result_queue = self._ctx.Queue()
        self._state = {}
        self._events = []

    def submit(
        self,
        key: str,
        app: str,
        config: SystemConfig,
        scale: float,
        *,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume_from: Optional[str] = None,
        lanes: Optional[int] = None,
        accesses_per_lane: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        """Queue one task (idempotent per ``key``).  Checkpoint knobs
        make the run migratable: the coordinator can later
        :meth:`preempt` it and resubmit elsewhere with ``resume_from``.
        ``lanes`` / ``accesses_per_lane`` / ``seed`` override the
        supervisor-wide trace shape for this task only (the job
        service's pool is heterogeneous; figure grids are not)."""
        if key not in self._state:
            self._state[key] = _Task(
                key, app, config, scale,
                ckpt_every=checkpoint_every,
                ckpt_dir=checkpoint_dir,
                resume_from=resume_from,
                lanes=lanes,
                accesses_per_lane=accesses_per_lane,
                seed=seed,
            )

    def step(self, *, respawn: bool = True) -> List[tuple]:
        """One supervision tick: dispatch pending tasks, pump worker
        messages (blocking at most ``TICK``), police liveness, and
        return the events that happened —
        ``("start", key)`` / ``("done", key, result, attempts)`` /
        ``("failed", key, reason, attempts)`` /
        ``("quarantined", key, result, reason)``."""
        state = self._state
        if not self._stop:
            self._dispatch(state)
        self._pump(state)
        self._check_liveness(state, respawn=respawn and not self._stop)
        events, self._events = self._events, []
        return events

    def open_count(self) -> int:
        """Tasks not yet terminal (pending or running)."""
        return sum(
            1 for t in self._state.values()
            if t.status in ("pending", "running")
        )

    def running_count(self) -> int:
        """Tasks currently on a worker (what a graceful drain waits for)."""
        return sum(1 for t in self._state.values() if t.status == "running")

    def unstarted(self) -> List[str]:
        """Keys that are queued but not running — the steal candidates."""
        return [t.key for t in self._state.values() if t.status == "pending"]

    def running(self) -> List[str]:
        """Keys currently on a worker — the preemption candidates a
        graceful drain snapshots when its budget runs out."""
        return [t.key for t in self._state.values() if t.status == "running"]

    def revoke(self, keys: Sequence[str]) -> List[str]:
        """Give back not-yet-started tasks (work-stealing).  A key that
        raced into ``running`` (or finished) since the steal decision is
        simply not revoked; the caller treats the returned list as the
        authoritative set it may hand to another host."""
        revoked = []
        for key in keys:
            task = self._state.get(key)
            if task is not None and task.status == "pending":
                del self._state[key]
                revoked.append(key)
        return revoked

    def preempt(self, key: str) -> Optional[str]:
        """Kill a *running* task for migration and drop it from the
        table; returns the path of its newest complete RCKP checkpoint
        (or None if it never reached one).  The worker is killed — not
        asked — so the checkpoint on disk is the only state that
        survives, which is exactly the byte-equal-resume contract the
        snapshot subsystem already guarantees."""
        task = self._state.get(key)
        if task is None or task.status != "running":
            return None
        for wid, worker in list(self._workers.items()):
            if worker.task_key == key:
                try:
                    worker.proc.kill()
                except Exception:  # pragma: no cover
                    pass
                worker.proc.join(self.terminate_grace)
                self._retire_worker(wid)
                break
        del self._state[key]
        if task.ckpt_dir is None:
            return None
        try:
            ckpts = sorted(
                p for p in os.listdir(task.ckpt_dir)
                if p.startswith("ckpt-") and p.endswith(".ckpt")
            )
        except OSError:
            return None
        if not ckpts:
            return None
        return os.path.join(task.ckpt_dir, ckpts[-1])

    def shutdown(self) -> None:
        """Terminate the fleet and tear down queues (idempotent)."""
        self._terminate_workers()
        if self._result_queue is not None:
            try:
                self._result_queue.close()
                self._result_queue.cancel_join_thread()
            except Exception:
                pass
            self._result_queue = None

    # -- signals -------------------------------------------------------------

    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return []
        installed = []

        def handler(signum, frame):
            if self._stop:
                raise KeyboardInterrupt
            self.request_stop()
            print(
                "[repro] sweep: caught signal, draining workers "
                "(interrupt again to force)",
                file=sys.stderr,
            )

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((sig, signal.signal(sig, handler)))
            except (ValueError, OSError):  # pragma: no cover
                pass
        return installed

    def _restore_signal_handlers(self, installed) -> None:
        for sig, old in installed:
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):  # pragma: no cover
                pass

    # -- workers -------------------------------------------------------------

    def _spawn_worker(self) -> None:
        wid = self._next_worker
        self._next_worker += 1
        task_queue = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_queue, self._result_queue, self.heartbeat_interval,
                  os.getpid()),
            daemon=True,
            name=f"repro-sweep-{wid}",
        )
        proc.start()
        self._workers[wid] = _Worker(proc, task_queue)

    def _retire_worker(self, wid: int) -> None:
        worker = self._workers.pop(wid, None)
        if worker is None:
            return
        self._unreplaced += 1
        try:
            worker.queue.close()
            worker.queue.cancel_join_thread()
        except Exception:  # pragma: no cover
            pass

    def _terminate_workers(self) -> None:
        """Terminate → join → kill every worker; never leaves orphans,
        even for a child that shrugs off the first (TERM) signal."""
        workers = list(self._workers.values())
        self._workers.clear()
        for worker in workers:
            try:
                worker.queue.put_nowait(None)
            except Exception:
                pass
        for worker in workers:
            if worker.proc.is_alive():
                try:
                    worker.proc.terminate()
                except Exception:  # pragma: no cover
                    pass
        deadline = time.monotonic() + self.terminate_grace
        for worker in workers:
            worker.proc.join(max(0.05, deadline - time.monotonic()))
        for worker in workers:
            if worker.proc.is_alive():
                try:
                    worker.proc.kill()
                except Exception:  # pragma: no cover
                    pass
                worker.proc.join(5.0)
        for worker in workers:
            try:
                worker.queue.close()
                worker.queue.cancel_join_thread()
            except Exception:  # pragma: no cover
                pass

    # -- scheduling ----------------------------------------------------------

    def _dispatch(self, state: Dict[str, _Task]) -> None:
        now = time.monotonic()
        dispatched = False
        for worker in self._workers.values():
            if worker.task_key is not None or not worker.proc.is_alive():
                continue
            task = next(
                (
                    t for t in state.values()
                    if t.status == "pending" and t.not_before <= now
                ),
                None,
            )
            if task is None:
                break
            task.status = "running"
            worker.task_key = task.key
            worker.assigned_at = now
            worker.last_beat = now
            worker.queue.put((
                task.key, task.app, task.config, task.scale,
                task.lanes if task.lanes is not None else self.lanes,
                task.accesses_per_lane
                if task.accesses_per_lane is not None
                else self.accesses_per_lane,
                task.seed if task.seed is not None else self.seed,
                task.ckpt_every, task.ckpt_dir, task.resume_from,
            ))
            self._events.append(("start", task.key))
            dispatched = True
        if dispatched and self.journal is not None:
            # Dispatch boundary: under REPRO_JOURNAL_FSYNC=batch this is
            # where the journal's loss window closes.
            self.journal.sync()

    def _pump(self, state: Dict[str, _Task]) -> None:
        try:
            msg = self._result_queue.get(timeout=self.TICK)
        except queue_mod.Empty:
            return
        except Exception:  # pragma: no cover - torn queue from a killed worker
            return
        self._handle(msg, state)
        while True:
            try:
                msg = self._result_queue.get_nowait()
            except queue_mod.Empty:
                return
            except Exception:  # pragma: no cover
                return
            self._handle(msg, state)

    def _handle(self, msg, state: Dict[str, _Task]) -> None:
        kind, wid, key, payload = msg
        if kind == "wake":
            return  # posted by wake(): it only ended the tick's wait
        worker = self._workers.get(wid)
        if kind in ("start", "hb"):
            if worker is not None:
                worker.last_beat = time.monotonic()
            if kind == "hb" and self.heartbeat_events and key in state:
                self._events.append(("hb", key))
            return
        task = state.get(key)
        if task is not None:
            if kind == "done":
                self._complete(task, payload)
            elif kind == "error":
                self._fail(task, payload)
        if worker is not None and worker.task_key == key:
            worker.task_key = None

    def _check_liveness(self, state: Dict[str, _Task], *, respawn: bool = True) -> None:
        now = time.monotonic()
        for wid in list(self._workers):
            worker = self._workers[wid]
            if not worker.proc.is_alive():
                key = worker.task_key
                exitcode = worker.proc.exitcode
                self.worker_deaths += 1
                self._retire_worker(wid)
                if key is not None and key in state:
                    self._fail(state[key], f"worker died (exit code {exitcode})")
                continue
            if worker.task_key is None:
                continue
            hung = now - worker.last_beat > self.heartbeat_grace
            overdue = now - worker.assigned_at > self.task_deadline
            if hung or overdue:
                reason = (
                    "no heartbeat for "
                    f"{now - worker.last_beat:.1f}s"
                    if hung
                    else f"task deadline exceeded ({self.task_deadline:.0f}s)"
                )
                key = worker.task_key
                try:
                    worker.proc.kill()
                except Exception:  # pragma: no cover
                    pass
                worker.proc.join(self.terminate_grace)
                self.worker_deaths += 1
                self._retire_worker(wid)
                if key in state:
                    self._fail(state[key], f"worker hung: {reason}")
        if respawn and not self._stop:
            open_tasks = sum(
                1 for t in state.values() if t.status in ("pending", "running")
            )
            while len(self._workers) < min(self.jobs, open_tasks):
                self._spawn_worker()
                if self._unreplaced:
                    self._unreplaced -= 1
                    self.respawns += 1

    # -- outcomes ------------------------------------------------------------

    def _complete(self, task: _Task, result: SimulationResult) -> None:
        task.status = "done"
        task.result = result
        if self.cache is not None:
            self.cache.put(task.key, result)
        if self.journal is not None:
            self.journal.record(
                "done", task.key, app=task.app, attempt=task.attempts + 1
            )
        self._events.append(("done", task.key, result, task.attempts + 1))

    def _fail(self, task: _Task, reason: str) -> None:
        if task.status == "done":
            return
        task.attempts += 1
        self.failures += 1
        reason = str(reason)[:500]
        if self.journal is not None:
            self.journal.record(
                "failed", task.key, app=task.app, attempt=task.attempts,
                reason=reason,
            )
        self._events.append(("failed", task.key, reason, task.attempts))
        if task.attempts >= self.max_attempts:
            task.status = "quarantined"
            task.result = _quarantine_result(task.app, task.config, reason)
            self.quarantined += 1
            if self.journal is not None:
                self.journal.record(
                    "quarantined", task.key, app=task.app,
                    attempt=task.attempts, reason=reason,
                )
            self._events.append(("quarantined", task.key, task.result, reason))
            print(
                f"[repro] sweep: quarantined {task.app} after "
                f"{task.attempts} attempts: {reason}",
                file=sys.stderr,
            )
        else:
            task.status = "pending"
            task.not_before = (
                time.monotonic()
                + self.backoff_base * (2 ** (task.attempts - 1))
            )


class _RecordingRunner(ExperimentRunner):
    """Dry-run runner: notes every requested run, returns placeholders."""

    def __init__(self, template: ExperimentRunner) -> None:
        super().__init__(
            lanes=template.lanes,
            accesses_per_lane=template.accesses_per_lane,
            seed=template.seed,
        )
        self.requests: List[Request] = []

    def run(self, app: str, config: SystemConfig, scale: float = 1.0) -> SimulationResult:
        self.requests.append((app, config, scale))
        return _placeholder_result(app, config)


class ParallelRunner(ExperimentRunner):
    """Experiment runner that fans independent runs over supervised
    worker processes; serial semantics otherwise (same memo, same
    cache).  Supervision knobs pass straight to
    :class:`SweepSupervisor`."""

    def __init__(
        self,
        lanes: Optional[int] = None,
        accesses_per_lane: Optional[int] = None,
        seed: Optional[int] = None,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        **supervisor_opts,
    ) -> None:
        super().__init__(
            lanes=lanes, accesses_per_lane=accesses_per_lane, seed=seed, cache=cache
        )
        self.jobs = jobs if jobs is not None else _env_int("REPRO_JOBS", 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.supervisor_opts = supervisor_opts
        #: live supervisor during a run_many (tests and chaos drivers
        #: reach in to kill workers / request stops).
        self._supervisor: Optional[SweepSupervisor] = None

    # -- grid execution ------------------------------------------------------

    def _journal_for(self, sweep_name: Optional[str]) -> Optional[SweepJournal]:
        if self.cache is None:
            return None
        return SweepJournal(journal_path(self.cache.root, sweep_name or "sweep"))

    def run_many(
        self,
        requests: Sequence[Request],
        *,
        sweep_name: Optional[str] = None,
        resume: bool = False,
    ) -> List[SimulationResult]:
        """Execute a grid; returns results in request order.

        Already-memoised and disk-cached entries are served without
        touching the workers; the rest run ``jobs``-wide under the
        supervisor.  Repeated requests for the same run are simulated
        exactly once.  With ``resume=True`` (and a cache), tasks the
        sweep journal marks quarantined are served as aborted
        placeholders instead of re-burning their retry budget; done
        tasks resume from the cache as usual.
        """
        requests = [
            (app, config, scale)
            for (app, config, *rest) in requests
            for scale in [rest[0] if rest else 1.0]
        ]
        journal = (
            self._journal_for(sweep_name) if (self.jobs > 1 or resume) else None
        )
        try:
            # Resume folds the whole journal family — the coordinator's
            # plus any per-host siblings a distributed sweep left behind
            # — so losing hosts never loses the record of finished work.
            terminal = (
                merged_terminal_keys(journal.path) if (resume and journal) else {}
            )
            todo: List[Tuple[str, str, SystemConfig, float]] = []
            seen = set()
            for app, config, scale in requests:
                key = ("run", app, scale, self.lanes, self.seed,
                       self._lane_budget(config.num_gpus), config)
                if key in self._results or key in seen:
                    continue
                disk_key = self.disk_key(app, config, scale)
                if self.cache is not None:
                    cached = self.cache.get(disk_key)
                    if cached is not None:
                        self._results[key] = cached
                        continue
                if terminal.get(disk_key) == "quarantined":
                    self._results[key] = _quarantine_result(
                        app, config,
                        "skipped on resume (quarantined in sweep journal)",
                    )
                    continue
                seen.add(key)
                todo.append((disk_key, app, config, scale))

            if todo:
                self._execute(todo, journal)
        finally:
            if journal is not None:
                journal.close()

        # Everything is memoised now; the base run() never simulates.
        return [super(ParallelRunner, self).run(app, config, scale)
                for app, config, scale in requests]

    def _execute(
        self,
        todo: List[Tuple[str, str, SystemConfig, float]],
        journal: Optional[SweepJournal],
    ) -> None:
        """Run the deduplicated cache-miss tasks and memoise the
        results.  Subclasses override this to change *where* tasks run
        (the fabric runner ships them to host agents); everything around
        it — dedup, cache precheck, resume skip, figure orchestration —
        is shared."""
        if self.jobs == 1 or len(todo) == 1:
            for disk_key, app, config, scale in todo:
                result = _simulate_job(
                    (app, config, scale,
                     self.lanes, self.accesses_per_lane, self.seed)
                )
                self._store(disk_key, app, config, scale, result, journal)
        else:
            supervisor = SweepSupervisor(
                jobs=self.jobs,
                lanes=self.lanes,
                accesses_per_lane=self.accesses_per_lane,
                seed=self.seed,
                cache=self.cache,
                journal=journal,
                **self.supervisor_opts,
            )
            self._supervisor = supervisor
            try:
                fresh = supervisor.run(todo)
            finally:
                self._supervisor = None
            for disk_key, app, config, scale in todo:
                # Cache/journal already filled by the supervisor.
                self._memoize(app, config, scale, fresh[disk_key])

    def _memoize(self, app, config, scale, result) -> None:
        key = ("run", app, scale, self.lanes, self.seed,
               self._lane_budget(config.num_gpus), config)
        self._results[key] = result

    def _store(self, disk_key, app, config, scale, result, journal) -> None:
        self._memoize(app, config, scale, result)
        if self.cache is not None:
            self.cache.put(disk_key, result)
        if journal is not None:
            journal.record("done", disk_key, app=app, attempt=1)

    # -- figure orchestration ------------------------------------------------

    def prefetch_figure(
        self,
        figure_fn: Callable[[ExperimentRunner], dict],
        *,
        resume: bool = False,
    ) -> int:
        """Discover the grid one figure needs and execute it under the
        supervisor; returns the number of distinct runs the figure uses.

        Discovery is best-effort: if the figure's post-processing chokes
        on placeholder numbers, whatever was recorded up to that point
        is still prefetched and the real pass runs (serially) as usual.
        """
        recorder = _RecordingRunner(self)
        try:
            figure_fn(recorder)
        except Exception:
            pass
        self.run_many(
            recorder.requests, sweep_name=figure_fn.__name__, resume=resume
        )
        return len(set(recorder.requests))

    def run_figure(
        self,
        figure_fn: Callable[[ExperimentRunner], dict],
        *,
        resume: bool = False,
    ) -> dict:
        """Run one figure function with a supervised prefetch of its
        grid; ``resume=True`` continues an interrupted sweep from its
        journal and cache."""
        self.prefetch_figure(figure_fn, resume=resume)
        return figure_fn(self)
