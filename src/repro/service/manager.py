"""The JobManager: admission, execution, journaling, recovery, drain.

One manager owns the whole job lifecycle behind the HTTP layer:

* **Admission** (HTTP threads): validate the spec, take a bounded
  queue slot or refuse with a ``Retry-After`` hint, and journal the
  accepted job *before* acknowledging it — an acknowledged job is
  durable by construction.
* **Execution** (the manager's scheduler thread): feed queued jobs to a
  :class:`~repro.experiments.parallel.SweepSupervisor` worker pool and
  translate its tick events (dispatch, heartbeat, retry, quarantine,
  completion) into job-state transitions and client-visible progress
  events.  Worker SIGKILL, hangs, poison tasks, exponential backoff and
  RCKP resume are all the supervisor's existing machinery — nothing is
  reimplemented here.
* **Crash safety**: the job journal (the sweep journal's append-only
  JSONL, ``fsync=always``) plus the content-addressed result cache are
  the only durable state.  A restarted manager folds the journal,
  resurrects terminal jobs for status/artifact queries, re-admits
  queued jobs, and resumes previously-running jobs from their newest
  RCKP checkpoint (recorded at graceful drain, or discovered on disk
  after a SIGKILL).  A task's checkpoints are deleted once it is done
  or quarantined, and a job's whole checkpoint directory once the job
  is done.
* **Graceful drain**: stop admission, let running tasks finish within
  the drain budget, then preempt the stragglers — journaling each
  preempted task's newest checkpoint so the next boot continues it
  instead of restarting it.

Thread discipline: the supervisor is touched *only* by the scheduler
thread (plus the idempotent ``request_stop`` and ``wake``); HTTP
threads touch the queue, the journal, and the job table under one lock.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from ..experiments.cache import ResultCache
from ..experiments.journal import SweepJournal, journal_path
from ..experiments.parallel import SweepSupervisor
from ..metrics.export import result_to_json_bytes
from .events import EventBroker
from .models import JobRecord, JobSpec, new_job_id
from .queue import AdmissionQueue

__all__ = ["JobManager", "QueueFull", "ServiceDraining"]


class QueueFull(RuntimeError):
    """Admission refused: the bounded queue is at capacity (HTTP 429)."""

    def __init__(self, retry_after: int) -> None:
        super().__init__(f"admission queue full; retry after {retry_after}s")
        self.retry_after = retry_after


class ServiceDraining(RuntimeError):
    """Admission refused: the server is shutting down (HTTP 503)."""


def _newest_checkpoint(directory: Path) -> Optional[str]:
    """Newest complete RCKP file in ``directory`` (None if none)."""
    try:
        names = sorted(
            name for name in os.listdir(directory)
            if name.startswith("ckpt-") and name.endswith(".ckpt")
        )
    except OSError:
        return None
    if not names:
        return None
    return str(directory / names[-1])


class JobManager:
    """Owns jobs end to end; see the module docstring for the design."""

    def __init__(
        self,
        cache: ResultCache,
        *,
        workers: int = 2,
        queue_limit: int = 16,
        checkpoint_every: Optional[int] = 100_000,
        drain_timeout: float = 10.0,
        journal_name: str = "service-jobs",
        supervisor_opts: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.cache = cache
        self.workers = workers
        self.default_checkpoint_every = checkpoint_every
        self.drain_timeout = drain_timeout
        self.queue = AdmissionQueue(queue_limit, workers)
        self.events = EventBroker()
        # fsync per record: job admissions are HTTP-rate, not
        # sweep-rate, so durability wins over write batching here.
        self.journal = SweepJournal(
            journal_path(cache.root, journal_name), fsync="always"
        )
        opts = dict(supervisor_opts or {})
        opts.setdefault("heartbeat_events", True)
        self.supervisor = SweepSupervisor(
            jobs=workers,
            lanes=4,
            accesses_per_lane=1200,
            seed=7,
            cache=cache,
            journal=None,
            **opts,
        )
        self._lock = threading.RLock()
        self._jobs: Dict[str, JobRecord] = {}
        #: task key -> job ids sharing that task (identical submissions
        #: coalesce onto one simulation, like MSHRs for HTTP).
        self._task_jobs: Dict[str, Set[str]] = {}
        #: job id -> task key -> checkpoint to resume from (recovery).
        self._resume_hints: Dict[str, Dict[str, Optional[str]]] = {}
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._started = time.time()
        self.recovered_jobs = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Recover the journal, bring up the pool, start scheduling."""
        self._recover()
        self.supervisor.start()
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission; drain in-flight work within the budget, then
        preempt-and-snapshot whatever could not finish (idempotent)."""
        budget = self.drain_timeout if timeout is None else timeout
        with self._lock:
            self._draining = True
            self._drain_deadline = time.monotonic() + (budget if drain else 0.0)
        self.supervisor.request_stop()
        self.supervisor.wake()
        thread = self._thread
        if thread is not None:
            thread.join(budget + 30.0)
            self._thread = None
        self.journal.close()

    def healthy(self) -> bool:
        """Liveness: the process can answer at all."""
        return True

    def ready(self) -> bool:
        """Readiness: accepting new jobs (false while draining)."""
        with self._lock:
            if self._draining:
                return False
        thread = self._thread
        return thread is not None and thread.is_alive()

    # -- admission (HTTP threads) --------------------------------------------

    def submit(self, payload: Any) -> JobRecord:
        """Validate, admit (or refuse), journal, acknowledge.

        Raises :class:`~repro.service.models.SpecError` (400),
        :class:`QueueFull` (429) or :class:`ServiceDraining` (503).
        """
        spec = JobSpec.from_dict(payload)
        job_id = new_job_id()
        with self._lock:
            if self._draining:
                raise ServiceDraining("server is draining; not accepting jobs")
            if not self.queue.offer(job_id):
                raise QueueFull(self.queue.retry_after())
            record = JobRecord(id=job_id, spec=spec)
            record.tasks = {key: None for key in spec.task_keys()}
            self._jobs[job_id] = record
            # Journal before acknowledging: once the caller sees the job
            # id, a crash cannot lose the job.
            self.journal.record("queued", job_id, spec=spec.to_dict())
        self.events.emit(job_id, "queued", queue_depth=self.queue.depth())
        # After "queued" is emitted, so it stays the job's first event.
        self.supervisor.wake()
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[JobRecord]:
        with self._lock:
            return list(self._jobs.values())

    def artifact(self, job_id: str) -> Optional[bytes]:
        """Canonical artifact bytes for a done job: one canonical-JSON
        line per run, in spec order, served from the content-addressed
        cache.  Byte-equal to ``repro run --json`` for the same runs."""
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None or record.state != "done":
            return None
        chunks = []
        for key in record.spec.task_keys():
            result = self.cache.get(key)
            if result is None:
                return None
            chunks.append(result_to_json_bytes(result))
        return b"".join(chunks)

    def metrics(self) -> Dict[str, Any]:
        with self._lock:
            by_state: Dict[str, int] = {}
            for record in self._jobs.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
            draining = self._draining
        hits, misses = self.cache.hits, self.cache.misses
        lookups = hits + misses
        return {
            "queue_depth": self.queue.depth(),
            "queue_limit": self.queue.limit,
            "queue_rejected": self.queue.rejected,
            "retry_after_hint": self.queue.retry_after(),
            "service_time_ewma": round(self.queue.service_time(), 3),
            "in_flight": self.supervisor.running_count(),
            "workers": self.workers,
            "jobs_by_state": by_state,
            "jobs_recovered": self.recovered_jobs,
            "task_retries": self.supervisor.failures,
            "tasks_quarantined": self.supervisor.quarantined,
            "worker_deaths": self.supervisor.worker_deaths,
            "worker_respawns": self.supervisor.respawns,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "draining": draining,
            "uptime_seconds": round(time.time() - self._started, 1),
        }

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Fold the journal into the job table: terminal jobs come back
        queryable, open jobs come back *runnable*."""
        folded: Dict[str, Dict[str, Any]] = {}
        for order, rec in enumerate(self.journal.events()):
            job_id, event = rec["key"], rec["event"]
            entry = folded.setdefault(
                job_id,
                {"spec": None, "state": None, "error": None,
                 "snapshots": {}, "order": order},
            )
            if event == "queued":
                entry["spec"] = rec.get("spec")
                entry["state"] = "queued"
            elif event == "started":
                entry["state"] = "started"
            elif event == "snapshot":
                entry["snapshots"][rec.get("task")] = rec.get("checkpoint")
            elif event == "done":
                entry["state"] = "done"
            elif event == "quarantined":
                entry["state"] = "failed"
                entry["error"] = rec.get("reason")
            # "failed" records are retry diagnostics, not state.
        requeue: List[JobRecord] = []
        for job_id, entry in sorted(
            folded.items(), key=lambda item: item[1]["order"]
        ):
            if entry["spec"] is None:
                continue  # a torn head record; nothing to rebuild from
            try:
                spec = JobSpec.from_journal(entry["spec"])
            except (KeyError, TypeError):
                continue
            record = JobRecord(id=job_id, spec=spec, recovered=True)
            record.tasks = {key: None for key in spec.task_keys()}
            state = entry["state"]
            if state == "done":
                record.state = "done"
                record.finished = record.created
                for key in record.tasks:
                    record.tasks[key] = "done"
            elif state == "failed":
                record.state = "failed"
                record.finished = record.created
                record.error = entry["error"]
            else:
                record.state = "queued"
                self._resume_hints[job_id] = dict(entry["snapshots"])
                requeue.append((entry["state"] != "started", record))
            self._jobs[job_id] = record
            self.recovered_jobs += 1
        # Previously-running jobs outrank never-dispatched ones; within
        # each class, original admission order is preserved (the sort is
        # stable and the fold yielded jobs in ledger order).
        requeue.sort(key=lambda item: item[0])
        for _, record in requeue:
            self.queue.offer(record.id, force=True)
            self.events.emit(
                record.id, "recovered",
                resumable=bool(self._resume_hints.get(record.id)),
            )

    # -- scheduling (the manager thread) -------------------------------------

    def _loop(self) -> None:
        # Each step waits up to a supervisor tick for worker messages;
        # submit() and close() wake it, so admission and shutdown act
        # at once instead of on the next tick.
        while True:
            with self._lock:
                draining = self._draining
                deadline = self._drain_deadline
            if draining:
                drained = self.supervisor.running_count() == 0
                if drained or (deadline is not None
                               and time.monotonic() > deadline):
                    break
            else:
                self._admit_from_queue()
            for event in self.supervisor.step(respawn=not draining):
                self._translate(event)
        self._finish_drain()

    def _ckpt_dir(self, job_id: str, task_key: Optional[str] = None) -> str:
        path = Path(self.cache.root) / "service-ckpt" / job_id
        return str(path if task_key is None else path / task_key[:16])

    def _drop_checkpoints(self, job_id: str, task_key: Optional[str] = None) -> None:
        """Delete checkpoints nothing will resume: a finished task's, or
        all of a finished job's, including those of task keys that
        other package source derived."""
        shutil.rmtree(self._ckpt_dir(job_id, task_key), ignore_errors=True)

    def _admit_from_queue(self) -> None:
        """Move queued jobs into the pool while it has headroom."""
        while self.supervisor.open_count() < self.workers:
            job_id = self.queue.take()
            if job_id is None:
                return
            with self._lock:
                record = self._jobs.get(job_id)
            if record is None or record.state in ("done", "failed"):
                continue
            hints = self._resume_hints.pop(job_id, {})
            all_cached = True
            for run, key in zip(record.spec.runs, record.spec.task_keys()):
                with self._lock:
                    owners = self._task_jobs.setdefault(key, set())
                    owners.add(job_id)
                if self.cache.get(key) is not None:
                    self._task_done(key, from_cache=True)
                    continue
                all_cached = False
                ckpt_dir = self._ckpt_dir(job_id, key)
                resume_from = hints.get(key) or _newest_checkpoint(
                    Path(ckpt_dir)
                )
                every = (
                    record.spec.checkpoint_every
                    if record.spec.checkpoint_every is not None
                    else self.default_checkpoint_every
                )
                self.supervisor.submit(
                    key, run.app, run.to_config(), run.scale,
                    checkpoint_every=every,
                    checkpoint_dir=ckpt_dir if every else None,
                    resume_from=resume_from,
                    lanes=run.lanes,
                    accesses_per_lane=run.accesses,
                    seed=run.seed,
                )
                if resume_from is not None:
                    self.events.emit(
                        job_id, "resumed", task=key, checkpoint=resume_from
                    )
            if all_cached:
                # Nothing to simulate: the artifact store already has
                # every run.  The job is done the moment it is admitted.
                self._mark_started(job_id)
            self._finalize_if_complete()

    def _translate(self, event: tuple) -> None:
        kind = event[0]
        if kind == "start":
            _, key = event
            for job_id in self._owners(key):
                self._mark_started(job_id)
                self.events.emit(job_id, "dispatch", task=key)
        elif kind == "hb":
            _, key = event
            for job_id in self._owners(key):
                self.events.emit(job_id, "heartbeat", task=key)
        elif kind == "failed":
            _, key, reason, attempts = event
            for job_id in self._owners(key):
                with self._lock:
                    record = self._jobs.get(job_id)
                    if record is not None:
                        record.attempts = max(record.attempts, attempts)
                    self.journal.record(
                        "failed", job_id, task=key, reason=reason,
                        attempt=attempts,
                    )
                self.events.emit(
                    job_id, "retry", task=key, reason=reason, attempt=attempts
                )
        elif kind == "done":
            _, key, result, attempts = event
            for job_id in self._owners(key):
                self._drop_checkpoints(job_id, key)
            self._task_done(
                key, aborted=bool(getattr(result, "aborted", False)),
                attempts=attempts,
            )
            self._finalize_if_complete()
        elif kind == "quarantined":
            _, key, _result, reason = event
            for job_id in self._owners(key):
                self._drop_checkpoints(job_id, key)
                with self._lock:
                    record = self._jobs.get(job_id)
                    if record is None or record.state in ("done", "failed"):
                        continue
                    record.tasks[key] = "quarantined"
                    record.state = "failed"
                    record.error = f"task quarantined: {reason}"
                    record.finished = time.time()
                    self.journal.record(
                        "quarantined", job_id, task=key, reason=reason
                    )
                self.events.emit(job_id, "failed", task=key, reason=reason)

    def _owners(self, key: str) -> List[str]:
        with self._lock:
            return sorted(self._task_jobs.get(key, ()))

    def _mark_started(self, job_id: str) -> None:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None or record.state != "queued":
                return
            record.state = "running"
            record.started = time.time()
            self.journal.record("started", job_id)
        self.events.emit(job_id, "started")

    def _task_done(
        self, key: str, *, from_cache: bool = False,
        aborted: bool = False, attempts: int = 1,
    ) -> None:
        for job_id in self._owners(key):
            with self._lock:
                record = self._jobs.get(job_id)
                if record is None or key not in record.tasks:
                    continue
                if record.tasks[key] is not None:
                    continue
                record.tasks[key] = "done"
            self.events.emit(
                job_id,
                "task_done",
                task=key,
                cached=from_cache,
                aborted=aborted,
                attempts=attempts,
            )

    def _finalize_if_complete(self) -> None:
        finished: List[str] = []
        with self._lock:
            for record in self._jobs.values():
                if record.state in ("done", "failed"):
                    continue
                if record.pending_tasks():
                    continue
                record.state = "done"
                record.finished = time.time()
                started = record.started or record.created
                self.queue.note_service_time(record.finished - started)
                self.journal.record("done", record.id)
                finished.append(record.id)
        for job_id in finished:
            self._drop_checkpoints(job_id)
            self.events.emit(
                job_id, "done", artifact=f"/jobs/{job_id}/artifact"
            )

    def _finish_drain(self) -> None:
        """Preempt whatever the drain budget could not wait for, and
        journal each task's newest checkpoint for the next boot."""
        for key in self.supervisor.running():
            checkpoint = self.supervisor.preempt(key)
            for job_id in self._owners(key):
                with self._lock:
                    record = self._jobs.get(job_id)
                    if record is None or record.tasks.get(key) is not None:
                        continue
                    self.journal.record(
                        "snapshot", job_id, task=key, checkpoint=checkpoint
                    )
                self.events.emit(
                    job_id, "preempted", task=key, checkpoint=checkpoint
                )
        self.supervisor.shutdown()
