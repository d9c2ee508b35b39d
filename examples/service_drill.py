#!/usr/bin/env python
"""Service drill (the CI ``service-smoke`` job).

Acceptance drill for the hardened job service, run against a real
``repro serve`` process over real HTTP:

1. boot the server on an ephemeral port and wait for ``/readyz``;
2. submit a 4-GPU job and stream its SSE event feed;
3. SIGKILL the backend worker process mid-simulation — the supervisor
   must respawn it and retry the task behind the same job;
4. assert the job completes anyway and its artifact is byte-identical
   to ``repro run --json`` for the same spec;
5. SIGTERM the server — graceful drain must finish in-flight work and
   exit 0.

Run it directly::

    python examples/service_drill.py

It exits 0 only if every step holds.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

JOB = {"app": "KM", "gpus": 4, "lanes": 2, "accesses": 4_000, "seed": 11}

#: every event kind seen on the SSE stream, in arrival order.
STREAMED = []


def say(msg):
    print(f"[drill] {msg}", flush=True)


def request(port, method, path, payload=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = json.dumps(payload) if payload is not None else None
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    raw = resp.read()
    conn.close()
    try:
        doc = json.loads(raw)
    except (ValueError, UnicodeDecodeError):
        doc = None
    return resp.status, raw, doc


def stream_events(port, job_id):
    """Read the SSE feed until the server closes it at the terminal
    event, recording event kinds as they arrive."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    conn.request("GET", f"/jobs/{job_id}/events")
    resp = conn.getresponse()
    assert resp.status == 200, resp.status
    for raw_line in resp:
        line = raw_line.decode().rstrip("\n")
        if line.startswith("event: "):
            STREAMED.append(line[len("event: "):])
    conn.close()


def boot_server(cache_dir):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--jobs", "1", "--cache-dir", cache_dir,
            "--drain-timeout", "120",
        ],
        cwd=str(REPO),
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
    assert match, f"server did not announce its address: {line!r}"
    port = int(match.group(1))
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            status, _, _ = request(port, "GET", "/readyz", timeout=5)
            if status == 200:
                return proc, port
        except OSError:
            pass
        time.sleep(0.2)
    raise AssertionError("server never became ready")


def backend_worker_pids(server_pid):
    """The spawn-context simulation workers: grandchildren-or-children
    of the server whose command line is a multiprocessing spawn_main
    (the resource tracker is excluded by name)."""
    pids = []
    for pid_dir in Path("/proc").iterdir():
        if not pid_dir.name.isdigit():
            continue
        try:
            stat = (pid_dir / "stat").read_text()
            cmdline = (pid_dir / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        ppid = int(stat.split(") ", 1)[1].split()[1])
        if ppid != server_pid:
            continue
        if b"spawn_main" in cmdline and b"resource_tracker" not in cmdline:
            pids.append(int(pid_dir.name))
    return pids


def reference_bytes():
    """What the CLI produces for the same spec — the byte oracle."""
    out = subprocess.run(
        [
            sys.executable, "-m", "repro", "run", JOB["app"],
            "--gpus", str(JOB["gpus"]), "--lanes", str(JOB["lanes"]),
            "--accesses", str(JOB["accesses"]), "--seed", str(JOB["seed"]),
            "--json", "-",
        ],
        cwd=str(REPO),
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        check=True,
    )
    return out.stdout


def main():
    with tempfile.TemporaryDirectory(prefix="service-drill-") as tmp:
        say("booting repro serve on an ephemeral port")
        proc, port = boot_server(os.path.join(tmp, "cache"))
        try:
            status, _, doc = request(port, "POST", "/jobs", JOB)
            assert status == 202, (status, doc)
            job_id = doc["id"]
            say(f"submitted 4-GPU job {job_id}; streaming events")
            streamer = threading.Thread(
                target=stream_events, args=(port, job_id), daemon=True
            )
            streamer.start()

            # Wait for the task to land on a backend worker, then kill it.
            deadline = time.monotonic() + 60
            victim = None
            while time.monotonic() < deadline and victim is None:
                workers = backend_worker_pids(proc.pid)
                if workers:
                    victim = workers[0]
                    break
                time.sleep(0.2)
            assert victim is not None, "no backend worker ever appeared"
            # Kill once the task is on a worker, not after a fixed
            # sleep: the job takes about a second on a fast host, so a
            # sleep can outlast it and the kill would hit an idle worker.
            while "dispatch" not in STREAMED and time.monotonic() < deadline:
                time.sleep(0.01)
            assert "dispatch" in STREAMED, "the task was never dispatched"
            say(f"SIGKILLing backend worker pid={victim}")
            os.kill(victim, signal.SIGKILL)

            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                status, _, doc = request(port, "GET", f"/jobs/{job_id}")
                assert status == 200
                if doc["state"] in ("done", "failed"):
                    break
                time.sleep(0.5)
            assert doc["state"] == "done", f"job ended {doc['state']}: {doc}"
            say("job completed despite the worker kill")

            streamer.join(30)
            assert "retry" in STREAMED, (
                f"worker death never surfaced on the SSE feed: {STREAMED}"
            )
            assert STREAMED and STREAMED[-1] == "done", STREAMED
            say(f"SSE feed closed at the terminal event: {STREAMED}")

            status, blob, _ = request(port, "GET", f"/jobs/{job_id}/artifact")
            assert status == 200
            say("artifact fetched; computing CLI reference bytes")
            assert blob == reference_bytes(), (
                "service artifact is not byte-identical to repro run --json"
            )
            say("artifact is byte-identical to the direct CLI run")

            status, _, _ = request(port, "GET", "/metrics")
            assert status == 200

            say("sending SIGTERM: graceful drain")
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=120)
            assert code == 0, f"server exited {code} on graceful drain"
            say("server drained and exited 0")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
    say("PASS")


if __name__ == "__main__":
    main()
