"""Crash-safe job journal: a restarted manager re-admits queued jobs,
resumes drained jobs from their snapshots, and keeps terminal jobs
queryable — no accepted job is ever lost.

These tests drive :class:`JobManager` directly (no HTTP) so they can
stop and restart managers over the same cache root the way a restarted
server process would.
"""

import os
import time

from repro.experiments.cache import ResultCache
from repro.experiments.runner import simulate
from repro.metrics.export import result_to_json_bytes
from repro.service import JobManager
from repro.service.models import JobSpec

SMALL = {"app": "KM", "gpus": 2, "lanes": 2, "accesses": 120, "seed": 3}
SLOW = {"app": "KM", "gpus": 2, "lanes": 2, "accesses": 10_000, "seed": 5}


def wait_terminal(manager, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = manager.get(job_id)
        if record.state in ("done", "failed"):
            return record
        time.sleep(0.25)
    raise AssertionError(f"job {job_id} still {record.state}")


def direct_bytes(spec_dict):
    run = JobSpec.from_dict(spec_dict).runs[0]
    result = simulate(
        run.app, run.to_config(), run.scale,
        lanes=run.lanes, accesses_per_lane=run.accesses, seed=run.seed,
    )
    return result_to_json_bytes(result)


class TestJournalRecovery:
    def test_queued_jobs_survive_a_crash(self, tmp_path):
        """Jobs accepted but never run: a dead server's journal alone
        re-admits them, and they complete on the next boot."""
        cache_root = str(tmp_path / "cache")
        crashed = JobManager(ResultCache(cache_root), workers=1)
        # Admission works before start(); the scheduler never runs, so
        # this is exactly a server that died right after acknowledging.
        first = crashed.submit(SMALL)
        second = crashed.submit(dict(SMALL, seed=11))
        crashed.journal.close()  # the crash (journal already fsynced)

        reborn = JobManager(ResultCache(cache_root), workers=1)
        reborn.start()
        try:
            assert reborn.recovered_jobs == 2
            for job_id, spec in ((first.id, SMALL),
                                 (second.id, dict(SMALL, seed=11))):
                record = wait_terminal(reborn, job_id)
                assert record.state == "done"
                assert record.recovered
                assert reborn.artifact(job_id) == direct_bytes(spec)
        finally:
            reborn.close(drain=False)

    def test_terminal_jobs_stay_queryable_after_restart(self, tmp_path):
        cache_root = str(tmp_path / "cache")
        manager = JobManager(ResultCache(cache_root), workers=1)
        manager.start()
        record = manager.submit(SMALL)
        wait_terminal(manager, record.id)
        manager.close(drain=True)

        reborn = JobManager(ResultCache(cache_root), workers=1)
        reborn.start()
        try:
            revived = reborn.get(record.id)
            assert revived is not None
            assert revived.state == "done"
            assert revived.recovered
            assert reborn.artifact(record.id) == direct_bytes(SMALL)
        finally:
            reborn.close(drain=False)

    def test_drain_preempts_and_restart_completes(self, tmp_path):
        """A job preempted by shutdown mid-flight is journaled and
        finishes on the next boot with byte-identical results.

        The next boot resumes from the newest checkpoint if one landed
        before the preempt, and reruns from scratch if none did — the
        contract is completion and byte-equality either way, with
        checkpoint resume as an optimisation (its plumbing is pinned
        separately below, its byte-equality by the snapshot suite)."""
        cache_root = str(tmp_path / "cache")
        manager = JobManager(
            ResultCache(cache_root), workers=1, checkpoint_every=5_000,
        )
        manager.start()
        record = manager.submit(SLOW)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if manager.get(record.id).state == "running":
                break
            time.sleep(0.1)
        assert manager.get(record.id).state == "running"
        manager.close(drain=False)  # zero drain budget: preempt + snapshot
        preempt_events = [
            e["event"] for e in manager.events.since(record.id)
        ]
        assert "preempted" in preempt_events

        reborn = JobManager(
            ResultCache(cache_root), workers=1, checkpoint_every=5_000,
        )
        reborn.start()
        try:
            assert reborn.get(record.id).recovered
            revived = wait_terminal(reborn, record.id)
            assert revived.state == "done"
            assert reborn.artifact(record.id) == direct_bytes(SLOW)
            # The result is cached, so nothing will read the job's
            # checkpoints again: they are deleted, not left to pile up.
            assert not os.path.exists(reborn._ckpt_dir(record.id))
        finally:
            reborn.close(drain=False)

    def test_recovered_job_resumes_from_newest_checkpoint(self, tmp_path):
        """When a checkpoint *does* survive in the job's checkpoint
        directory (or a drain snapshot recorded one), the recovered
        dispatch hands it to the worker as ``resume_from``."""
        cache_root = str(tmp_path / "cache")
        crashed = JobManager(ResultCache(cache_root), workers=1,
                             checkpoint_every=5_000)
        record = crashed.submit(SLOW)
        key = record.spec.task_keys()[0]
        ckpt_dir = crashed._ckpt_dir(record.id, key)
        os.makedirs(ckpt_dir, exist_ok=True)
        for stamp in ("000000005000", "000000015000"):
            with open(os.path.join(ckpt_dir, f"ckpt-{stamp}.ckpt"), "wb"):
                pass
        crashed.journal.record("started", record.id)
        crashed.journal.close()

        reborn = JobManager(ResultCache(cache_root), workers=1,
                            checkpoint_every=5_000)
        reborn._recover()
        reborn.supervisor.start()  # task table only; no workers yet
        reborn._admit_from_queue()
        task = reborn.supervisor._state[key]
        assert task.resume_from == os.path.join(
            ckpt_dir, "ckpt-000000015000.ckpt"
        )
        events = [e["event"] for e in reborn.events.since(record.id)]
        assert "recovered" in events and "resumed" in events

    def test_recovery_respects_original_admission_order(self, tmp_path):
        cache_root = str(tmp_path / "cache")
        crashed = JobManager(ResultCache(cache_root), workers=1, queue_limit=2)
        ids = [crashed.submit(dict(SMALL, seed=s)).id for s in (21, 22)]
        crashed.journal.close()

        reborn = JobManager(ResultCache(cache_root), workers=1, queue_limit=1)
        # queue_limit shrank below the recovered load: force-admission
        # must still take every journaled job.
        reborn._recover()
        assert reborn.queue.snapshot() == ids
