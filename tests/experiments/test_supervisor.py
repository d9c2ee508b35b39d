"""Supervised sweep runner: crash recovery, quarantine, resume, drain.

These tests exercise the fault-tolerance contract of
:class:`~repro.experiments.parallel.SweepSupervisor`:

* results are identical to serial execution, even when a worker is
  SIGKILLed mid-task;
* a poison task (one that always raises) is retried with backoff and
  quarantined after ``max_attempts`` without losing the other results;
* an interrupted sweep resumes from its journal + cache, and a
  quarantined task is not retried on resume;
* worker teardown escalates terminate → kill, so even a child that
  ignores the first signal never outlives the supervisor (the orphaned
  pool-worker regression);
* a worker whose supervisor is SIGKILLed exits on its own, even when
  the supervisor died before the worker's watchdog thread started.
"""

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import asdict

import pytest

from repro.config import InvalidationScheme, baseline_config
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    ParallelRunner,
    SweepInterrupted,
    SweepSupervisor,
    _Worker,
)
from repro.experiments.runner import ExperimentRunner

SIZES = dict(lanes=2, accesses_per_lane=120, seed=7)

SCENARIOS = [
    ("PR", baseline_config(2)),
    ("PR", baseline_config(2).with_scheme(InvalidationScheme.IDYLL)),
    ("SC", baseline_config(2).with_scheme(InvalidationScheme.LAZY)),
]


@pytest.fixture(scope="module")
def expected():
    serial = ExperimentRunner(**SIZES)
    return [serial.run(app, config) for app, config in SCENARIOS]


def _stubborn_main(ready) -> None:
    """A worker stand-in that shrugs off the first (TERM) signal."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()
    time.sleep(120)


class TestSupervisedEquivalence:
    def test_supervised_matches_serial(self, expected):
        runner = ParallelRunner(jobs=3, **SIZES)
        got = runner.run_many(SCENARIOS)
        assert len(got) == len(expected)
        for have, want in zip(got, expected):
            assert asdict(have) == asdict(want)


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_retried_and_respawned(self, expected):
        """SIGKILL a busy worker mid-sweep: the supervisor must detect
        the death, respawn, retry the task, and still match serial."""
        runner = ParallelRunner(jobs=2, **SIZES)
        killed = []

        def killer():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                supervisor = runner._supervisor
                if supervisor is not None:
                    for worker in list(supervisor._workers.values()):
                        if worker.task_key is not None and worker.proc.is_alive():
                            os.kill(worker.proc.pid, signal.SIGKILL)
                            killed.append(supervisor)
                            return
                time.sleep(0.01)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        got = runner.run_many(SCENARIOS)
        thread.join(timeout=60)
        assert killed, "kill thread never found a busy worker"
        for have, want in zip(got, expected):
            assert asdict(have) == asdict(want)
        (supervisor,) = killed
        assert supervisor.respawns >= 1


class TestPoisonQuarantine:
    def test_poison_task_quarantined_others_survive(self, tmp_path, expected):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(
            jobs=2, cache=cache, backoff_base=0.05, max_attempts=3, **SIZES
        )
        requests = (
            SCENARIOS[:2]
            + [("NO-SUCH-APP", baseline_config(2))]
            + SCENARIOS[2:]
        )
        got = runner.run_many(requests, sweep_name="poison")
        assert asdict(got[0]) == asdict(expected[0])
        assert asdict(got[1]) == asdict(expected[1])
        assert asdict(got[3]) == asdict(expected[2])
        poisoned = got[2]
        assert poisoned.aborted
        assert "quarantined" in poisoned.abort_reason
        assert "NO-SUCH-APP" in poisoned.abort_reason or "unknown workload" in (
            poisoned.abort_reason
        )

        journal = tmp_path / "journals" / "poison.jsonl"
        assert journal.exists()
        lines = journal.read_text().splitlines()
        events = [__import__("json").loads(line)["event"] for line in lines]
        assert events.count("failed") == 3
        assert events.count("quarantined") == 1
        assert events.count("done") == 3

        # Resume: done tasks come from cache, the quarantined task is
        # served as a placeholder without burning another retry budget.
        resumed = ParallelRunner(jobs=2, cache=ResultCache(tmp_path), **SIZES)
        t0 = time.monotonic()
        again = resumed.run_many(requests, sweep_name="poison", resume=True)
        elapsed = time.monotonic() - t0
        assert asdict(again[0]) == asdict(expected[0])
        assert again[2].aborted
        assert "resume" in again[2].abort_reason
        assert resumed.cache.hits >= 3
        # Nothing simulated, nothing retried: the resume is near-instant.
        assert elapsed < 10


class TestGracefulDrain:
    def test_sigint_drains_then_resume_completes(self, tmp_path, expected):
        """^C mid-sweep: workers are torn down (no orphans), completed
        work is journaled + cached, and a resumed sweep finishes with
        results identical to serial."""
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(
            jobs=2, cache=cache, drain_timeout=0.2, **SIZES
        )
        pids = []

        def interrupter():
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                supervisor = runner._supervisor
                if supervisor is not None and any(
                    w.task_key is not None for w in supervisor._workers.values()
                ):
                    pids.extend(
                        w.proc.pid for w in supervisor._workers.values()
                    )
                    os.kill(os.getpid(), signal.SIGINT)
                    return
                time.sleep(0.005)

        thread = threading.Thread(target=interrupter, daemon=True)
        thread.start()
        with pytest.raises(SweepInterrupted, match="resume"):
            runner.run_many(SCENARIOS, sweep_name="drain")
        thread.join(timeout=60)
        assert pids, "interrupter never fired"
        # No orphans: every worker the supervisor owned is gone.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            alive = [pid for pid in pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"orphaned workers survived the drain: {alive}"

        resumed = ParallelRunner(jobs=2, cache=ResultCache(tmp_path), **SIZES)
        got = resumed.run_many(SCENARIOS, sweep_name="drain", resume=True)
        for have, want in zip(got, expected):
            assert asdict(have) == asdict(want)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


class TestTerminateEscalation:
    def test_stubborn_child_is_killed_not_orphaned(self):
        """terminate → join → kill: a child that ignores SIGTERM (the
        first signal) must still be dead when teardown returns."""
        supervisor = SweepSupervisor(
            jobs=1, lanes=1, accesses_per_lane=1, seed=1, terminate_grace=0.5
        )
        ctx = multiprocessing.get_context("spawn")
        supervisor._ctx = ctx
        ready = ctx.Event()
        proc = ctx.Process(target=_stubborn_main, args=(ready,), daemon=True)
        proc.start()
        assert ready.wait(timeout=30), "stubborn child never armed its handler"
        supervisor._workers[0] = _Worker(proc, ctx.Queue())
        t0 = time.monotonic()
        supervisor._terminate_workers()
        elapsed = time.monotonic() - t0
        assert not proc.is_alive(), "stubborn child orphaned"
        # Escalation is bounded: grace + kill, not the child's 120s nap.
        assert elapsed < 30


def _doomed_supervisor(report) -> None:
    """Child-process body: a supervisor that hands its one worker a long
    task, reports the worker's pid, and waits to be SIGKILLed."""
    supervisor = SweepSupervisor(jobs=1, lanes=4, accesses_per_lane=50_000, seed=1)
    supervisor.start()
    supervisor._spawn_worker()
    supervisor.submit("busy", "PR", baseline_config(2), 1.0)
    supervisor.step()
    report.put([worker.proc.pid for worker in supervisor._workers.values()])
    time.sleep(120)


def _gone(pid: int) -> bool:
    """True once ``pid`` has exited; an unreaped zombie counts as gone
    (a container's init may never reap re-parented orphans)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    except OSError:  # pragma: no cover - no procfs
        return not _pid_alive(pid)
    return state in ("Z", "X")


class TestSupervisorDeath:
    def test_worker_exits_after_supervisor_sigkill(self):
        """The supervisor is killed right after dispatch, typically
        before its worker has finished booting: the worker must still
        notice and exit within a few seconds instead of adopting its
        new parent."""
        ctx = multiprocessing.get_context("spawn")
        report = ctx.Queue()
        # Not daemonic: a daemonic process may not spawn the worker.
        supervisor = ctx.Process(target=_doomed_supervisor, args=(report,))
        supervisor.start()
        workers = []
        try:
            workers = report.get(timeout=60)
            assert len(workers) == 1
            os.kill(supervisor.pid, signal.SIGKILL)
            supervisor.join(timeout=10)
            assert not supervisor.is_alive()
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline and not all(map(_gone, workers)):
                time.sleep(0.1)
            assert all(map(_gone, workers)), "worker outlived its SIGKILLed supervisor"
        finally:
            for pid in workers:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)
            if supervisor.is_alive():
                supervisor.kill()
                supervisor.join(timeout=10)
