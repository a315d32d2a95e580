"""Blocking HTTP client for the experiment service.

A thin ``http.client`` wrapper (stdlib only, like the server) used by
``repro submit``, the test-suite, and the CI smoke job.  Every method
maps 1:1 onto a service endpoint; non-2xx responses raise
:class:`ServiceError` carrying the status code and the server's
``error`` message.
"""

from __future__ import annotations

import http.client
import json
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

    # -- plumbing ------------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: bytes | None = None,
                 content_type: str | None = None) -> Any:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            headers = {}
            if content_type is not None:
                headers["Content-Type"] = content_type
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            ctype = resp.headers.get("Content-Type", "")
            payload: Any
            if "json" in ctype:
                payload = json.loads(raw.decode())
            else:
                payload = raw.decode()
            if resp.status >= 400:
                message = payload.get("error", str(payload)) \
                    if isinstance(payload, dict) else str(payload)
                raise ServiceError(resp.status, message)
            return payload
        finally:
            conn.close()

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

        Blocks until the server closes the stream after the terminal
        ``end`` event; yields every event in order from id 0.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            resp = conn.getresponse()
            if resp.status >= 400:
                raw = resp.read().decode()
                try:
                    message = json.loads(raw).get("error", raw)
                except ValueError:
                    message = raw
                raise ServiceError(resp.status, message)
            yield from decode_stream(iter(resp.readline, b""))
        finally:
            conn.close()
