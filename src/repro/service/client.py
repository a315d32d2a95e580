"""Blocking HTTP client for the experiment service.

A small HTTP/1.1 client over plain sockets (stdlib only, like the
server) used by ``repro submit``, the test-suite, and the CI smoke job.
Every method maps 1:1 onto a service endpoint; non-2xx responses raise
:class:`ServiceError` carrying the status code and the server's
``error`` message.

It speaks exactly the HTTP the service does: each request goes out as
one ``sendall`` of its head and body, and a response body is framed by
``Content-Length`` or ``Transfer-Encoding: chunked``.  There are no
proxies, redirects or TLS.  A body or chunked stream cut short raises
:class:`http.client.IncompleteRead`; ``timeout`` bounds every socket
operation.

Each calling thread keeps one persistent connection, so a job's submit,
event stream and result cost one TCP handshake between them;
:meth:`ServiceClient.close` (or leaving a ``with`` block) closes them.
A ``Connection: close`` answer closes its connection instead.  A
request on a *reused* connection that fails before any response byte
(the server closed it while idle, e.g. across a restart) is retried
once on a fresh connection; a fresh connection never retries.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Any, Iterable, Iterator

from .sse import decode_stream

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A non-2xx service response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class _Connection:
    """One kept-alive connection: its socket and the buffered reader
    that lives as long as it does."""

    __slots__ = ("sock", "rfile")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def read_head(self) -> tuple[int, dict[str, str]]:
        """Status code and lower-cased headers of the next response."""
        line = self.rfile.readline()
        if not line:
            raise http.client.RemoteDisconnected(
                "the service closed the connection without a response")
        try:
            status = int(line.split(None, 2)[1])
        except (IndexError, ValueError):
            raise http.client.BadStatusLine(repr(line)) from None
        headers: dict[str, str] = {}
        while (line := self.rfile.readline()) not in (b"\r\n", b"\n"):
            if not line:
                raise http.client.IncompleteRead(b"")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    def body(self, headers: dict[str, str]) -> Iterator[bytes]:
        """The response body in the pieces it was framed in: the whole
        ``Content-Length`` body, or each chunk up to the zero chunk."""
        rfile = self.rfile
        if headers.get("transfer-encoding", "").lower() != "chunked":
            length = int(headers["content-length"])
            data = rfile.read(length)
            if len(data) < length:
                raise http.client.IncompleteRead(data, length - len(data))
            yield data
            return
        while True:
            try:
                size = int(rfile.readline().split(b";", 1)[0], 16)
            except ValueError:  # torn (b"") or garbled size line
                raise http.client.IncompleteRead(b"") from None
            if not size:
                break
            data = rfile.read(size + 2)
            if len(data) < size + 2:
                raise http.client.IncompleteRead(data[:size],
                                                 size - len(data[:size]))
            yield data[:size]
        while rfile.readline() not in (b"\r\n", b"\n", b""):
            pass  # trailer fields


def _lines(pieces: Iterable[bytes]) -> Iterator[bytes]:
    """Split body pieces into lines, joining a line split across two."""
    tail = b""
    for piece in pieces:
        lines = (tail + piece).split(b"\n")
        tail = lines.pop()
        yield from lines
    if tail:
        yield tail


class ServiceClient:
    """Synchronous client for one service instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8765, *,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: thread id -> that thread's idle connection.  A connection in
        #: use is out of the map, so no two threads ever share one.
        self._idle: dict[int, _Connection] = {}

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
              content_type: str | None = None
              ) -> tuple[_Connection, int, dict[str, str]]:
        """Send one request on this thread's connection, which is taken
        out of the idle map until :meth:`_release` puts it back, and
        read the response head."""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n")
        if body is not None:
            head += (f"Content-Type: {content_type}\r\n"
                     f"Content-Length: {len(body)}\r\n")
        request = (head + "\r\n").encode() + (body or b"")
        conn = self._idle.pop(threading.get_ident(), None)
        while True:
            reused = conn is not None
            if conn is None:
                conn = _Connection(self.host, self.port, self.timeout)
            try:
                conn.sock.sendall(request)
                return (conn, *conn.read_head())
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected (no status line) is a reset too
                conn.close()
                if not reused:
                    raise
                conn = None
            except BaseException:
                conn.close()
                raise

    def _release(self, conn: _Connection, headers: dict[str, str]) -> None:
        """Return a connection whose response was read to the end."""
        if headers.get("connection", "").lower() == "close":
            conn.close()
        elif self._idle.setdefault(threading.get_ident(), conn) is not conn:
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
        conn, status, headers = self._send(method, path, body, content_type)
        try:
            raw = b"".join(conn.body(headers))
        except BaseException:
            conn.close()
            raise
        self._release(conn, headers)
        if status >= 400:
            raise self._error(status, raw)
        if "json" in headers.get("content-type", ""):
            return json.loads(raw)
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
        :class:`http.client.IncompleteRead` after the events that did
        arrive.
        """
        conn, status, headers = self._send("GET", f"/jobs/{job_id}/events")
        try:
            if status >= 400:
                raise self._error(status, b"".join(conn.body(headers)))
            yield from decode_stream(_lines(conn.body(headers)))
        except BaseException:
            conn.close()
            raise
        self._release(conn, headers)
