"""Blocking HTTP client for the experiment service.

A thin ``http.client`` wrapper (stdlib only, like the server) used by
``repro submit``, the test-suite, and the CI smoke job.  Every method
maps 1:1 onto a service endpoint; non-2xx responses raise
:class:`ServiceError` carrying the status code and the server's
``error`` message.

Each calling thread keeps one persistent connection, so a job's submit,
event stream and result cost one TCP handshake between them;
:meth:`ServiceClient.close` (or leaving a ``with`` block) closes them.
A request on a *reused* connection that fails before any response byte
(the server closed it while idle, e.g. across a restart) is retried
once on a fresh connection; a fresh connection never retries.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Iterator

from .sse import decode_stream

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A non-2xx service response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Synchronous client for one service instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8765, *,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: thread id -> that thread's idle connection.  A connection in
        #: use is out of the map, so no two threads ever share one.
        self._idle: dict[int, http.client.HTTPConnection] = {}

    def close(self) -> None:
        """Close every idle connection; a later call opens a fresh one.

        Call it once the threads using the client are done with it.
        """
        while self._idle:
            self._idle.popitem()[1].close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------

    def _send(self, method: str, path: str, body: bytes | None = None,
              headers: dict[str, str] | None = None
              ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request on this thread's connection, which is taken
        out of the idle map until :meth:`_release` puts it back."""
        conn = self._idle.pop(threading.get_ident(), None)
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
        reused = conn.sock is not None
        while True:
            try:
                conn.request(method, path, body=body, headers=headers or {})
                return conn, conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected (no status line) is a reset too
                conn.close()
                if not reused:
                    raise
                reused = False  # the closed connection reopens on request
            except BaseException:
                conn.close()
                raise

    def _release(self, conn: http.client.HTTPConnection) -> None:
        """Return a connection whose response was read to the end."""
        if self._idle.setdefault(threading.get_ident(), conn) is not conn:
            conn.close()  # a call made while it was out opened its own

    @staticmethod
    def _error(status: int, raw: bytes) -> ServiceError:
        text = raw.decode()
        try:
            message = json.loads(text).get("error", text)
        except (ValueError, AttributeError):
            message = text
        return ServiceError(status, message)

    def _request(self, method: str, path: str,
                 body: bytes | None = None,
                 content_type: str | None = None) -> Any:
        headers = {} if content_type is None else {
            "Content-Type": content_type}
        conn, resp = self._send(method, path, body, headers)
        try:
            raw = resp.read()
        except BaseException:
            conn.close()
            raise
        self._release(conn)
        if resp.status >= 400:
            raise self._error(resp.status, raw)
        if "json" in resp.headers.get("Content-Type", ""):
            return json.loads(raw.decode())
        return raw.decode()

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit_text(self, text: str, *, toml: bool = False,
                    priority: int | None = None) -> dict:
        """Submit a raw spec/envelope payload; returns the job snapshot."""
        path = "/jobs" if priority is None else f"/jobs?priority={priority}"
        ctype = "application/toml" if toml else "application/json"
        return self._request("POST", path, text.encode(), ctype)

    def submit(self, payload: dict, *, priority: int | None = None) -> dict:
        """Submit a spec/envelope mapping; returns the job snapshot."""
        return self.submit_text(json.dumps(payload), priority=priority)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/jobs/{job_id}")

    def preempt(self, job_id: str) -> dict:
        """Checkpoint a running job out of its worker and requeue it
        (``DELETE ?preempt=true``); 409 unless the job is running."""
        return self._request("DELETE", f"/jobs/{job_id}?preempt=true")

    def metrics(self) -> dict:
        """The full structured metrics document (``?format=json``)."""
        return self._request("GET", "/metrics?format=json")

    def metrics_text(self) -> str:
        """The plain-text ``name value`` exposition."""
        return self._request("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition (``?format=prometheus``)."""
        return self._request("GET", "/metrics?format=prometheus")

    def trace(self, job_id: str, *, chrome: bool = False) -> dict:
        """The job's distributed span trace.

        Default shape: ``{"job", "trace_id", "complete", "dropped",
        "span_count", "spans": [...]}``; ``chrome=True`` returns a
        Chrome-trace/Perfetto document instead.
        """
        path = f"/jobs/{job_id}/trace"
        if chrome:
            path += "?format=chrome"
        return self._request("GET", path)

    def metric(self, name: str) -> float:
        """One scalar from the text exposition (0.0 when absent)."""
        for line in self.metrics_text().splitlines():
            metric, _, value = line.partition(" ")
            if metric == name:
                return float(value)
        return 0.0

    def wait(self, job_id: str, *, timeout: float = 120.0,
             poll: float = 0.05) -> dict:
        """Poll until the job is terminal; returns the final snapshot."""
        deadline = time.monotonic() + timeout
        while True:
            snap = self.job(job_id)
            if snap["status"] in ("done", "failed", "cancelled",
                                  "cache_hit", "interrupted"):
                return snap
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snap['status']} after "
                    f"{timeout:g}s")
            time.sleep(poll)

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream the job's SSE events as decoded dicts.

        Yields every event in order from id 0 and returns after the
        terminal ``end`` event, when the server ends the chunked
        response.  The stream has this thread's connection to itself: a
        call made inside the loop opens its own.  The connection goes
        back for reuse once the stream is read to its end; stopping
        early closes it.  A stream cut off before its end raises
        :class:`http.client.IncompleteRead`.
        """
        conn, resp = self._send("GET", f"/jobs/{job_id}/events")
        try:
            if resp.status >= 400:
                raise self._error(resp.status, resp.read())
            yield from decode_stream(iter(resp.readline, b""))
        except BaseException:
            conn.close()
            raise
        self._release(conn)
