"""Dependency-free HTTP front end for the job manager.

Built on :class:`http.server.ThreadingHTTPServer` so the service runs
anywhere the simulator does — no ASGI stack required (the optional
FastAPI adapter lives in :mod:`repro.service.app`).  One handler thread
per connection; every route is a thin translation onto
:class:`~repro.service.manager.JobManager`, which owns all state.

Routes::

    POST /jobs                submit a job (202, or 400/413/429/503)
    GET  /jobs                list job records
    GET  /jobs/{id}           poll one job record
    GET  /jobs/{id}/events    Server-Sent-Events progress stream
                              (?since=<seq> resumes after a reconnect)
    GET  /jobs/{id}/artifact  canonical result bytes (409 until done)
    GET  /healthz             liveness
    GET  /readyz              readiness (503 while draining)
    GET  /metrics             queue/pool/cache counters as JSON

Backpressure contract: a refused ``POST /jobs`` carries
``Retry-After`` derived from the queue depth and the EWMA of recent
job service times, so well-behaved clients converge on the server's
real drain rate.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .events import sse_format
from .manager import JobManager, QueueFull, ServiceDraining
from .models import TERMINAL_STATES, SpecError

__all__ = ["JobHTTPServer", "serve"]

#: request-body bound: a job spec is a few hundred bytes; anything
#: megabyte-sized is abuse, not a sweep.
MAX_BODY_BYTES = 1_048_576

#: after refusing an unread body, how long and how much of it the
#: server still reads and discards before it closes (see
#: ``_Handler._reject_unread_body``).
LINGER_SECONDS = 1.0
LINGER_BYTES = 8 * MAX_BODY_BYTES

#: SSE keepalive interval — also how fast a vanished client is noticed.
SSE_KEEPALIVE_SECONDS = 15.0

_TERMINAL_EVENTS = frozenset({"done", "failed"})


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.manager``."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _send_json(
        self,
        status: int,
        payload: Any,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        message: str,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_json(status, {"error": message}, headers=headers)

    def _reject_unread_body(self, status: int, message: str) -> None:
        """Refuse a request whose body stays unread, and close the
        connection: on a kept-alive one the unread bytes would be parsed
        as the next request.

        The close lingers.  Closing a socket with input still arriving
        resets the connection, and a client still sending the body then
        fails mid-send, before it reads the reply.  So the server shuts
        down its sending side after the reply and discards what the
        client still sends, until the client closes or the
        ``LINGER_SECONDS`` / ``LINGER_BYTES`` bound is reached."""
        self.close_connection = True
        self._send_error_json(status, message, headers={"Connection": "close"})
        sock = self.connection
        deadline = time.monotonic() + LINGER_SECONDS
        budget = LINGER_BYTES
        try:
            sock.shutdown(socket.SHUT_WR)
            while budget > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                sock.settimeout(remaining)
                chunk = sock.recv(min(budget, 65536))
                if not chunk:
                    break
                budget -= len(chunk)
        except OSError:  # includes the timeout: the client went quiet
            pass

    def _read_body(self) -> Optional[bytes]:
        """Bounded body read; answers 413/400 itself and returns None."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:  # read(-1) would wait for the client's EOF
                raise ValueError(length)
        except ValueError:
            self._reject_unread_body(400, "bad Content-Length")
            return None
        if length > MAX_BODY_BYTES:
            self._reject_unread_body(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
            return None
        return self.rfile.read(length)

    # -- routing -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler convention)
        path = urlparse(self.path).path.rstrip("/")
        if path != "/jobs":
            self._send_error_json(404, f"no such route: POST {path}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"request body is not JSON: {exc}")
            return
        try:
            record = self.manager.submit(payload)
        except SpecError as exc:
            self._send_error_json(400, str(exc))
            return
        except QueueFull as exc:
            self._send_error_json(
                429, str(exc), headers={"Retry-After": str(exc.retry_after)}
            )
            return
        except ServiceDraining as exc:
            self._send_error_json(503, str(exc))
            return
        doc = record.to_dict()
        doc["links"] = {
            "self": f"/jobs/{record.id}",
            "events": f"/jobs/{record.id}/events",
            "artifact": f"/jobs/{record.id}/artifact",
        }
        self._send_json(202, doc)

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, {"ok": self.manager.healthy()})
        elif path == "/readyz":
            if self.manager.ready():
                self._send_json(200, {"ready": True})
            else:
                self._send_error_json(503, "draining")
        elif path == "/metrics":
            self._send_json(200, self.manager.metrics())
        elif path == "/jobs":
            records = sorted(
                self.manager.list_jobs(), key=lambda r: r.created
            )
            self._send_json(200, {"jobs": [r.to_dict() for r in records]})
        elif path.startswith("/jobs/"):
            self._route_job(path, parsed.query)
        else:
            self._send_error_json(404, f"no such route: GET {path}")

    def _route_job(self, path: str, query: str) -> None:
        parts = path.split("/")[2:]  # ["<id>"] or ["<id>", "<sub>"]
        job_id = parts[0]
        record = self.manager.get(job_id)
        if record is None:
            self._send_error_json(404, f"no such job: {job_id}")
            return
        sub = parts[1] if len(parts) > 1 else None
        if sub is None:
            self._send_json(200, record.to_dict())
        elif sub == "events":
            self._stream_events(job_id, query)
        elif sub == "artifact":
            if record.state == "failed":
                self._send_error_json(
                    409, f"job failed: {record.error or 'unknown'}"
                )
            elif record.state not in TERMINAL_STATES:
                self._send_error_json(
                    409, f"job is {record.state}; artifact not ready"
                )
            else:
                blob = self.manager.artifact(job_id)
                if blob is None:
                    self._send_error_json(
                        404, "artifact evicted from the result cache"
                    )
                    return
                self.send_response(200)
                self.send_header("Content-Type", "application/x-ndjson")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)
        else:
            self._send_error_json(404, f"no such route: GET {path}")

    # -- SSE -----------------------------------------------------------------

    def _stream_events(self, job_id: str, query: str) -> None:
        params = parse_qs(query)
        try:
            since = int(params.get("since", ["0"])[0])
        except ValueError:
            self._send_error_json(400, "since must be an integer")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # Chunked framing has no place in an unbounded stream; close
        # the connection when the job reaches a terminal state instead.
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        manager, events = self.manager, self.manager.events
        try:
            while True:
                fresh = events.wait_since(job_id, since, SSE_KEEPALIVE_SECONDS)
                if not fresh:
                    record = manager.get(job_id)
                    if record is not None and record.state in TERMINAL_STATES:
                        # Terminal before this client connected (or the
                        # terminal event aged out of the ring): one
                        # synthetic frame so the stream always ends with
                        # a terminal event.
                        self.wfile.write(sse_format({
                            "seq": since,
                            "job": job_id,
                            "event": record.state,
                            "synthetic": True,
                        }))
                        self.wfile.flush()
                        return
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                terminal = False
                for event in fresh:
                    since = max(since, event["seq"])
                    self.wfile.write(sse_format(event))
                    terminal = terminal or event["event"] in _TERMINAL_EVENTS
                self.wfile.flush()
                if terminal:
                    return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up


class JobHTTPServer:
    """A bound-and-threaded HTTP server wrapping one job manager."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 8642,
        *,
        verbose: bool = False,
    ) -> None:
        self.manager = manager
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.manager = manager  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port resolves 0 to the real one."""
        return self._httpd.server_address[:2]

    def start(self) -> None:
        """Recover + start the manager, then begin serving."""
        self.manager.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown: stop admission, drain (or snapshot)
        in-flight jobs, then close the listener (idempotent)."""
        self.manager.close(drain=drain)
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None
        self._httpd.server_close()


def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    verbose: bool = False,
) -> None:
    """Run the service until SIGINT/SIGTERM, then drain gracefully.

    The first signal stops admission and waits out the drain budget
    (running jobs either finish or get checkpoint-snapshotted for the
    next boot); a second signal is the operator escalating, so the
    drain wait is skipped.
    """
    server = JobHTTPServer(manager, host, port, verbose=verbose)
    stop_requested = threading.Event()

    def _on_signal(signum: int, _frame: Any) -> None:
        if stop_requested.is_set():  # second signal: drop the drain wait
            manager.drain_timeout = 0.0
        stop_requested.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    server.start()
    bound_host, bound_port = server.address
    print(f"repro service listening on http://{bound_host}:{bound_port}")
    try:
        stop_requested.wait()
        print("drain: admission stopped; waiting for in-flight jobs")
        server.stop(drain=True)
        print("drain: complete")
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
