"""End-to-end service behaviour over real HTTP: submit → stream →
artifact, cache-hit fast path, validation at the door, overload
backpressure, worker SIGKILL survival, a scheduler that acts on
admission and shutdown without waiting out its tick.

Everything runs against the stdlib server on an ephemeral port with a
real spawn-context worker pool — the same stack `repro serve` boots.
"""

import http.client
import json
import os
import re
import signal
import socket
import time

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.parallel import SweepSupervisor
from repro.experiments.runner import simulate
from repro.metrics.export import result_to_json_bytes
from repro.service import JobHTTPServer, JobManager
from repro.service.models import JobSpec

#: tiny but real: a couple of seconds through a spawned worker.
SMALL = {"app": "KM", "gpus": 2, "lanes": 2, "accesses": 120, "seed": 3}
#: big enough to leave a kill window while a worker is running it.
SLOW = {"app": "KM", "gpus": 2, "lanes": 2, "accesses": 10_000, "seed": 5}

POLL_TIMEOUT = 120.0


class Client:
    """Minimal JSON-over-HTTP test client (one connection per call, so
    SSE streams and polls never fight over a socket)."""

    def __init__(self, host, port):
        self.host, self.port = host, port

    def request(self, method, path, payload=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        raw = resp.read()
        conn.close()
        try:
            doc = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            doc = None
        return resp.status, dict(resp.getheaders()), raw, doc

    def wait_terminal(self, job_id, timeout=POLL_TIMEOUT):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, _, _, doc = self.request("GET", f"/jobs/{job_id}")
            assert status == 200
            if doc["state"] in ("done", "failed"):
                return doc
            time.sleep(0.25)
        raise AssertionError(f"job {job_id} still {doc['state']}")

    def stream_events(self, job_id, since=0, timeout=POLL_TIMEOUT):
        """Read the SSE stream to completion; returns event kinds."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        conn.request("GET", f"/jobs/{job_id}/events?since={since}")
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == "text/event-stream"
        raw = resp.read().decode()  # server closes at the terminal event
        conn.close()
        return [
            line.split("event: ", 1)[1]
            for line in raw.splitlines()
            if line.startswith("event: ")
        ]


@pytest.fixture
def service(tmp_path):
    def boot(**overrides):
        opts = dict(workers=2, queue_limit=8, checkpoint_every=None,
                    drain_timeout=10.0)
        opts.update(overrides)
        manager = JobManager(ResultCache(str(tmp_path / "cache")), **opts)
        server = JobHTTPServer(manager, port=0)
        server.start()
        boot.servers.append(server)
        return manager, Client(*server.address)

    boot.servers = []
    yield boot
    for server in boot.servers:
        server.stop(drain=False)


def direct_result(spec_dict):
    """The spec's single run, simulated in this process."""
    run = JobSpec.from_dict(spec_dict).runs[0]
    return simulate(
        run.app, run.to_config(), run.scale,
        lanes=run.lanes, accesses_per_lane=run.accesses, seed=run.seed,
    )


def direct_bytes(spec_dict):
    """What the CLI would produce for the same run — the byte-equality
    oracle for service artifacts."""
    return result_to_json_bytes(direct_result(spec_dict))


def raw_exchange(host, port, data, timeout=5.0):
    """Send raw bytes on one connection; return everything the server
    sends back before it closes (or goes quiet for ``timeout``)."""
    received = b""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(data)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except socket.timeout:
            pass
    return received


class TestLifecycle:
    def test_submit_stream_artifact_byte_equal(self, service):
        _, client = service()
        status, _, _, doc = client.request("POST", "/jobs", SMALL)
        assert status == 202
        assert doc["state"] == "queued"
        job_id = doc["id"]
        assert doc["links"]["artifact"] == f"/jobs/{job_id}/artifact"

        final = client.wait_terminal(job_id)
        assert final["state"] == "done"
        assert final["tasks"] == {"total": 1, "done": 1}

        kinds = client.stream_events(job_id)
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        assert "started" in kinds and "dispatch" in kinds

        status, headers, blob, _ = client.request(
            "GET", f"/jobs/{job_id}/artifact"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert blob == direct_bytes(SMALL)
        # The pool's first spawns are not respawns.
        assert client.request("GET", "/metrics")[3]["worker_respawns"] == 0

    def test_resubmission_is_a_cache_hit(self, service):
        manager, client = service()
        _, _, _, first = client.request("POST", "/jobs", SMALL)
        client.wait_terminal(first["id"])
        misses_before = manager.cache.misses

        _, _, _, second = client.request("POST", "/jobs", SMALL)
        final = client.wait_terminal(second["id"])
        assert final["state"] == "done"
        assert manager.cache.misses == misses_before  # no new simulation
        _, _, blob1, _ = client.request("GET", f"/jobs/{first['id']}/artifact")
        _, _, blob2, _ = client.request("GET", f"/jobs/{second['id']}/artifact")
        assert blob1 == blob2

    def test_sweep_artifact_is_ordered_ndjson(self, service):
        _, client = service()
        sweep = {
            "kind": "sweep", "gpus": 2, "lanes": 2, "accesses": 120,
            "runs": [{"app": "KM", "seed": 3}, {"app": "BS", "seed": 4}],
        }
        _, _, _, doc = client.request("POST", "/jobs", sweep)
        final = client.wait_terminal(doc["id"])
        assert final["tasks"] == {"total": 2, "done": 2}
        _, _, blob, _ = client.request("GET", f"/jobs/{doc['id']}/artifact")
        lines = blob.decode().splitlines()
        assert [json.loads(l)["workload"] for l in lines] == ["KM", "BS"]

    def test_artifact_before_done_is_409(self, service):
        _, client = service(workers=1)
        _, _, _, doc = client.request("POST", "/jobs", SLOW)
        status, _, _, err = client.request(
            "GET", f"/jobs/{doc['id']}/artifact"
        )
        assert status == 409
        assert "not ready" in err["error"]


class TestValidationAtTheDoor:
    def test_bad_specs_are_400(self, service):
        _, client = service()
        for payload in (
            {"app": "NOPE"},
            {"app": "KM", "gpus": 9999},
            {"app": "KM", "faults": "trace=/etc/passwd"},
            {"unexpected": True},
        ):
            status, _, _, doc = client.request("POST", "/jobs", payload)
            assert status == 400, payload
            assert "error" in doc

    def test_non_json_body_is_400(self, service):
        _, client = service()
        conn = http.client.HTTPConnection(*client.__dict__.values(), timeout=10)
        conn.request("POST", "/jobs", body=b"not json {")
        assert conn.getresponse().status == 400
        conn.close()

    def test_oversized_body_is_413(self, service):
        _, client = service()
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        conn.request("POST", "/jobs", body=b"x" * (1_048_576 + 1))
        assert conn.getresponse().status == 413
        conn.close()

    def test_refused_body_can_still_be_sent(self, service):
        """A client still sending a body the server refused must not see
        a reset: after the 413 the server half-closes and discards the
        rest, so the send completes and the close is clean."""
        _, client = service()
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 2000000\r\n\r\n")
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += sock.recv(65536)
            assert reply.startswith(b"HTTP/1.1 413 ")
            time.sleep(0.05)  # well past the reply, well inside the linger
            sock.sendall(b"x" * 1_000_000)
            while sock.recv(65536):  # the rest of the reply, then EOF
                pass

    @pytest.mark.parametrize("length, status", [
        ("2000000", 413), ("nope", 400), ("-1", 400),
    ])
    def test_unread_body_is_not_served_as_a_request(self, service, length, status):
        """A body the server refuses without reading must end the
        connection: here it is a complete job submission, which a
        kept-alive connection would parse and admit."""
        manager, client = service()
        spec = json.dumps(SMALL).encode()
        smuggled = (
            b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(spec), spec)
        )
        head = (
            f"POST /jobs HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        reply = raw_exchange(client.host, client.port, head + smuggled)
        assert re.findall(rb"^HTTP/1\.1 (\d{3}) ", reply, re.M) == [
            str(status).encode()
        ]
        assert manager.list_jobs() == []

    def test_unknown_job_is_404(self, service):
        _, client = service()
        for path in ("/jobs/nope", "/jobs/nope/events", "/jobs/nope/artifact"):
            status, _, _, _ = client.request("GET", path)
            assert status == 404

    def test_health_endpoints(self, service):
        _, client = service()
        assert client.request("GET", "/healthz")[0] == 200
        assert client.request("GET", "/readyz")[0] == 200
        status, _, _, metrics = client.request("GET", "/metrics")
        assert status == 200
        for key in ("queue_depth", "in_flight", "cache_hit_rate",
                    "retry_after_hint", "jobs_by_state"):
            assert key in metrics


class TestBackpressure:
    def test_overload_answers_429_and_loses_no_accepted_job(self, service):
        manager, client = service(workers=1, queue_limit=1)
        # Fill the worker: wait until the slow job leaves the queue.
        _, _, _, first = client.request("POST", "/jobs", SLOW)
        deadline = time.monotonic() + 30
        while manager.queue.depth() > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        # One queue slot, distinct specs so the cache can't absorb them.
        outcomes = []
        for seed in (101, 102, 103, 104):
            spec = dict(SMALL, seed=seed)
            status, headers, _, doc = client.request("POST", "/jobs", spec)
            outcomes.append((status, headers, doc))
        accepted = [d["id"] for s, _, d in outcomes if s == 202]
        rejected = [(s, h) for s, h, _ in outcomes if s == 429]
        assert rejected, "queue_limit=1 must refuse some of 4 rapid submits"
        for status, headers in rejected:
            assert int(headers["Retry-After"]) >= 1
        # Every accepted job must reach a terminal state with its
        # artifact intact — overload may refuse, never lose.
        for job_id in [first["id"]] + accepted:
            final = client.wait_terminal(job_id)
            assert final["state"] == "done"
            status, _, _, _ = client.request("GET", f"/jobs/{job_id}/artifact")
            assert status == 200
        assert manager.queue.rejected == len(rejected)


class TestWorkerCrash:
    def test_sigkill_mid_job_recovers(self, service):
        manager, client = service(workers=1)
        _, _, _, doc = client.request("POST", "/jobs", SLOW)
        job_id = doc["id"]
        # Wait for the task to actually land on a worker, then murder it.
        deadline = time.monotonic() + 30
        victim = None
        while time.monotonic() < deadline:
            workers = [
                w for w in manager.supervisor._workers.values()
                if w.task_key is not None and w.proc.pid
            ]
            if workers:
                victim = workers[0].proc.pid
                break
            time.sleep(0.05)
        assert victim is not None, "task never reached a worker"
        time.sleep(0.5)  # let the simulation get going
        os.kill(victim, signal.SIGKILL)

        final = client.wait_terminal(job_id)
        assert final["state"] == "done"
        assert manager.supervisor.worker_deaths >= 1
        assert manager.supervisor.respawns >= 1
        kinds = client.stream_events(job_id)
        assert "retry" in kinds  # the death was surfaced to the client
        _, _, blob, _ = client.request("GET", f"/jobs/{job_id}/artifact")
        assert blob == direct_bytes(SLOW)


class TestSchedulerWake:
    def test_admission_and_stop_do_not_wait_for_the_tick(self, tmp_path, monkeypatch):
        """With a 60 s supervisor tick, a cache-hit job still finishes
        and a non-draining stop still returns at once: submit() and
        close() wake the scheduler."""
        monkeypatch.setattr(SweepSupervisor, "TICK", 60.0)
        cache = ResultCache(str(tmp_path / "cache"))
        (key,) = JobSpec.from_dict(SMALL).task_keys()
        cache.put(key, direct_result(SMALL))
        server = JobHTTPServer(
            JobManager(cache, workers=1, checkpoint_every=None), port=0
        )
        server.start()
        try:
            client = Client(*server.address)
            _, _, _, doc = client.request("POST", "/jobs", SMALL)
            assert client.wait_terminal(doc["id"], timeout=10)["state"] == "done"
        finally:
            start = time.monotonic()
            server.stop(drain=False)
            stop_s = time.monotonic() - start
        assert stop_s < 10
