"""End-to-end tests of the experiment service (HTTP + SSE).

Each test boots a real :class:`ExperimentService` on an ephemeral port
with an isolated result cache and talks to it through the stdlib
:class:`ServiceClient` — the same wire path ``repro submit`` and the CI
smoke job use.  The anchor properties:

* an HTTP-submitted spec produces a result digest identical to a local
  ``run_spec`` / ``run_sweep_spec`` of the same file;
* re-submitting is a ``cache_hit`` that recomputes nothing and shows up
  on ``/metrics``;
* SSE streams are ordered, complete (ids 0..n with no gaps), and
  terminate after the ``end`` event;
* malformed specs are rejected with 422 and the :class:`SpecError`
  message;
* cancelling queued and running jobs leaves the store consistent;
* connections persist: one client thread's job travels over one
  connection, SSE streams are chunked, and shutdown closes idle
  connections instead of waiting for them;
* the client keeps its wire contract: a torn body raises
  ``IncompleteRead``, ``Connection: close`` is honoured, and only a
  reused connection is retried;
* a store-hit job costs one write each way per exchange, and each
  submission expands its sweep and computes its dedupe key once.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import socket
import struct
import sys
import threading
import time
from collections import Counter
from contextlib import closing

import pytest

from repro.harness import run_spec, run_sweep_spec
from repro.harness.cache import ResultCache, result_to_dict, stable_digest
from repro.harness.parallel import SerialExecutor
from repro.service import (CACHE_HIT, CANCELLED, DONE, ExperimentService,
                           JobJournal, JobStore, ServiceClient, ServiceError)
from repro.service.sse import encode_event
from repro.spec import ExperimentSpec, JobEnvelope, SweepSpec

pytestmark = pytest.mark.service

#: a sub-second experiment cell (4x4 mesh, 250 cycles)
FAST = {"mechanism": "baseline", "pattern": "uniform", "rate": 0.05,
        "warmup": 50, "measure": 200, "seed": 7,
        "overrides": {"width": 4, "height": 4}}

FAST_SWEEP = {"mechanisms": ["baseline", "gflov"], "pattern": "uniform",
              "rates": [0.05], "gated_fractions": [0.0, 0.5],
              "warmup": 50, "measure": 200, "seed": 3,
              "overrides": {"width": 4, "height": 4}}


def cell(**kw) -> dict:
    return dict(FAST, **kw)


class SlowSerial(SerialExecutor):
    """Serial executor with a per-cell delay and an optional start gate."""

    def __init__(self, delay: float = 0.0,
                 gate: threading.Event | None = None) -> None:
        super().__init__()
        self.delay = delay
        self.gate = gate

    def execute(self, tasks, emit) -> None:
        self.mode = "serial"
        for i, task in enumerate(tasks):
            if self.gate is not None and not self.gate.wait(30.0):
                raise TimeoutError("test gate never released")
            if self.delay:
                time.sleep(self.delay)
            emit(i, task.run())


@pytest.fixture
def service(tmp_path):
    """Factory fixture: boot services with isolated caches, stop them."""
    started, clients = [], []

    def boot(conns: list | None = None,
             **kw) -> tuple[ExperimentService, ServiceClient]:
        """``conns``, when given, receives one entry per accepted
        connection."""
        kw.setdefault("executor", "serial")
        kw.setdefault("workers", 2)
        kw.setdefault("cache", ResultCache(tmp_path / "cache"))
        svc = ExperimentService(**kw)
        if conns is not None:
            handle = svc._handle_conn

            async def counted(reader, writer):
                conns.append(writer.get_extra_info("peername"))
                await handle(reader, writer)
            svc._handle_conn = counted
        port = svc.start()
        started.append(svc)
        clients.append(ServiceClient(port=port))
        return svc, clients[-1]

    yield boot
    for client in clients:
        client.close()
    for svc in started:
        svc.stop()


def test_submit_poll_digest_matches_run_spec(service):
    _, client = service()
    snap = client.submit(FAST)
    assert snap["status"] in ("queued", "running", "done")
    final = client.wait(snap["id"])
    assert final["status"] == DONE
    assert final["done_cells"] == final["total_cells"] == 1
    result = client.result(snap["id"])
    local = run_spec(ExperimentSpec(**FAST).resolved())
    assert result["digest"] == stable_digest(result_to_dict(local))
    assert result["kind"] == "experiment"
    assert final["digest"] == result["digest"]


def test_sweep_digest_matches_local_run(service):
    _, client = service()
    snap = client.wait(client.submit(FAST_SWEEP)["id"])
    assert snap["status"] == DONE
    result = client.result(snap["id"])
    assert result["kind"] == "sweep"

    series = run_sweep_spec(SweepSpec(**FAST_SWEEP))
    local = stable_digest(
        {m: [result_to_dict(r) for r in rs] for m, rs in series.items()})
    assert result["digest"] == local


def test_resubmit_is_cache_hit_with_zero_recompute(service):
    _, client = service()
    first = client.wait(client.submit(FAST)["id"])
    assert first["status"] == DONE
    assert client.metric("service.cells.executed") == 1

    again = client.submit(FAST)
    # all cells were in the store: terminal at submission time
    assert again["status"] == CACHE_HIT
    assert again["cache_hit_cells"] == again["total_cells"] == 1
    assert client.result(again["id"])["digest"] == first["digest"]
    # nothing recomputed, and the hit is a first-class metric
    assert client.metric("service.cells.executed") == 1
    assert client.metric("service.cells.cache_hits") == 1
    assert client.metric("service.jobs.cache_hits") == 1


def test_sse_stream_is_ordered_complete_and_terminates(service):
    svc, client = service(executor=lambda: SlowSerial(delay=0.05),
                          workers=1)
    snap = client.submit(FAST_SWEEP)

    events: list[dict] = []

    def collect() -> None:
        events.extend(client.events(snap["id"]))

    t = threading.Thread(target=collect)
    t.start()
    client.wait(snap["id"])
    t.join(timeout=30.0)
    assert not t.is_alive(), "SSE stream did not terminate after the job"

    # complete and ordered: ids are exactly 0..n-1
    assert [e["id"] for e in events] == list(range(len(events)))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "status" and events[0]["data"]["status"] == "queued"
    assert "status" in kinds[1:]  # the running transition
    progress = [e["data"] for e in events if e["event"] == "progress"]
    assert [p["done"] for p in progress] == list(range(1, 5))
    assert all(p["total"] == 4 for p in progress)
    assert kinds[-1] == "end"
    assert events[-1]["data"]["status"] == DONE
    assert events[-1]["data"]["digest"]

    # a late subscriber replays the identical history
    replay = list(client.events(snap["id"]))
    assert replay == events


def test_malformed_spec_is_422_with_spec_error_message(service):
    _, client = service()
    with pytest.raises(ServiceError) as exc:
        client.submit(cell(mechanism="warp-drive"))
    assert exc.value.status == 422
    assert "unknown mechanism 'warp-drive'" in exc.value.message

    with pytest.raises(ServiceError) as exc:
        client.submit(cell(rate=-0.5))
    assert exc.value.status == 422
    assert "non-negative" in exc.value.message

    # body that is not even JSON
    with pytest.raises(ServiceError) as exc:
        client.submit_text("{not json")
    assert exc.value.status == 422

    # full-system workload specs are not service material
    with pytest.raises(ServiceError) as exc:
        client.submit({"mechanism": "baseline", "workload": "dedup"})
    assert exc.value.status == 422
    assert "not cacheable" in exc.value.message

    # nothing malformed ever reaches the queue or the store's happy path
    assert all(j["status"] != "queued" for j in client.jobs())


def test_envelope_priority_and_tags_roundtrip(service):
    _, client = service()
    snap = client.submit({"spec": FAST, "priority": 7,
                          "tags": {"team": "noc"}})
    assert snap["priority"] == 7
    assert snap["tags"] == {"team": "noc"}
    # query override wins over the envelope
    snap2 = client.submit({"spec": cell(seed=8), "priority": 7},
                          priority=-3)
    assert snap2["priority"] == -3

    with pytest.raises(ServiceError) as exc:
        client.submit({"spec": FAST, "priority": 1000})
    assert exc.value.status == 422
    with pytest.raises(ServiceError) as exc:
        client.submit_text(json.dumps(FAST), priority=1000)
    assert exc.value.status == 422


def test_cancel_queued_job_leaves_store_consistent(service):
    gate = threading.Event()
    svc, client = service(executor=lambda: SlowSerial(gate=gate),
                          workers=1)
    blocker = client.submit(FAST)
    victim = client.submit(cell(seed=99))
    out = client.cancel(victim["id"])
    assert out["status"] == CANCELLED

    gate.set()
    done = client.wait(blocker["id"])
    assert done["status"] == DONE
    # the cancelled job never ran and the queue drained
    final = client.job(victim["id"])
    assert final["status"] == CANCELLED
    assert final["started_seq"] is None
    assert final["done_cells"] == 0
    assert client.health()["queued"] == 0
    assert client.metric("service.jobs.cancelled") == 1

    # cancelling a terminal job is a conflict
    with pytest.raises(ServiceError) as exc:
        client.cancel(victim["id"])
    assert exc.value.status == 409


def test_cancel_running_job_keeps_cache_consistent(service, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    svc, client = service(executor=lambda: SlowSerial(delay=0.15),
                          workers=1, cache=cache)
    snap = client.submit(FAST_SWEEP)
    deadline = time.monotonic() + 30.0
    while client.job(snap["id"])["done_cells"] < 1:
        assert time.monotonic() < deadline
        time.sleep(0.02)
    out = client.cancel(snap["id"])
    assert out["status"] == "running" and out["cancelling"]

    final = client.wait(snap["id"])
    assert final["status"] == CANCELLED
    assert 0 < final["done_cells"] < final["total_cells"]

    # every cache file the partial run left behind parses and carries
    # a replayable result
    files = list((tmp_path / "cache").rglob("*.json"))
    assert files
    for f in files:
        json.loads(f.read_text())

    # a resubmission completes, reuses the partial cells, and matches a
    # fresh local run exactly
    executed_before = client.metric("service.cells.executed")
    redo = client.wait(client.submit(FAST_SWEEP)["id"])
    assert redo["status"] == DONE
    series = run_sweep_spec(SweepSpec(**FAST_SWEEP))
    local = stable_digest(
        {m: [result_to_dict(r) for r in rs] for m, rs in series.items()})
    assert client.result(redo["id"])["digest"] == local
    executed_after = client.metric("service.cells.executed")
    assert executed_after - executed_before < redo["total_cells"]


def test_result_of_unfinished_job_is_409(service):
    gate = threading.Event()
    _, client = service(executor=lambda: SlowSerial(gate=gate), workers=1)
    snap = client.submit(FAST)
    with pytest.raises(ServiceError) as exc:
        client.result(snap["id"])
    assert exc.value.status == 409
    gate.set()
    client.wait(snap["id"])
    assert client.result(snap["id"])["digest"]


def test_metrics_endpoint_text_and_json(service):
    _, client = service()
    client.wait(client.submit(FAST)["id"])
    text = client.metrics_text()
    lines = [line for line in text.splitlines() if line]
    names = [line.split(" ", 1)[0] for line in lines]
    assert names == sorted(names)
    scalars = {line.split(" ", 1)[0]: float(line.split(" ", 1)[1])
               for line in lines}
    assert scalars["service.jobs.submitted"] == 1
    assert scalars["service.jobs.completed"] == 1
    assert scalars["service.cells.executed"] == 1

    doc = client.metrics()
    assert doc["instruments"]["service.jobs.submitted"]["value"] == 1


def test_unknown_routes_and_methods(service):
    _, client = service()
    with pytest.raises(ServiceError) as exc:
        client.job("j999999")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client._request("GET", "/nope")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client._request("DELETE", "/metrics")
    assert exc.value.status == 405
    assert client.health()["status"] == "ok"


def test_cli_submit_roundtrip(service, tmp_path, capsys):
    from repro.cli import main

    _, client = service()
    spec_file = tmp_path / "cell.json"
    spec_file.write_text(json.dumps(FAST))
    assert main(["submit", str(spec_file),
                 "--port", str(client.port)]) == 0
    out = capsys.readouterr().out
    assert "result digest" in out
    local = stable_digest(result_to_dict(
        run_spec(ExperimentSpec(**FAST).resolved())))
    assert local in out

    # resubmission reports the cache hit on the status line
    assert main(["submit", str(spec_file),
                 "--port", str(client.port)]) == 0
    again = capsys.readouterr().out
    assert "cache_hit" in again and local in again

    # a malformed file is a clean error, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cell(mechanism="nope")))
    assert main(["submit", str(bad), "--port", str(client.port)]) == 2
    assert "unknown mechanism" in capsys.readouterr().err


# -- persistent connections ---------------------------------------------------


def raw_socket(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=10.0)


def read_response(f) -> tuple[int, dict[str, str], bytes]:
    """One response off a socket file: status, headers and body (a
    chunked body is returned with its framing)."""
    status = int(f.readline().split()[1])
    headers = {}
    while (line := f.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") != "chunked":
        return status, headers, f.read(int(headers["content-length"]))
    body = b""
    while True:
        size_line = f.readline()
        size = int(size_line, 16)
        body += size_line + f.read(size + 2)
        if not size:
            return status, headers, body


def test_one_connection_carries_a_whole_job(service):
    conns: list = []
    _, client = service(conns=conns)
    snap = client.submit(FAST)
    events = list(client.events(snap["id"]))
    assert events[-1]["event"] == "end"
    assert client.result(snap["id"])["digest"] == events[-1]["data"]["digest"]
    assert client.metric("service.jobs.completed") == 1
    assert len(conns) == 1
    client.close()
    assert client.health()["status"] == "ok"
    assert len(conns) == 2


def test_threads_sharing_a_client_never_share_a_connection(service):
    conns: list = []
    _, client = service(conns=conns)
    threads, calls = 8, 40
    barrier = threading.Barrier(threads)
    errors: list = []

    def hammer() -> None:
        try:
            barrier.wait(10.0)
            for _ in range(calls):
                assert client.health()["status"] == "ok"
            barrier.wait(10.0)  # every thread alive: no thread id reused
        except Exception as exc:
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in pool)
    assert errors == []
    assert len(conns) == threads


def test_connection_close_is_honoured(service):
    _, client = service()
    with closing(raw_socket(client.port)) as sock:
        f = sock.makefile("rb")
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                     b"Connection: close\r\n\r\n")
        status, headers, body = read_response(f)
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert headers["connection"] == "close"
        assert f.read() == b""  # the server closed its end


def test_pipelined_requests_are_answered_in_order(service):
    _, client = service()
    with closing(raw_socket(client.port)) as sock:
        f = sock.makefile("rb")
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                     b"GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n")
        first, second = read_response(f), read_response(f)
    assert first[0] == second[0] == 200
    assert first[1]["connection"] == "keep-alive"
    assert json.loads(first[2])["status"] == "ok"
    assert json.loads(second[2]) == {"jobs": []}


def test_sse_body_is_chunked_and_keeps_the_connection(service):
    _, client = service()
    job_id = client.submit(FAST)["id"]
    client.wait(job_id)
    with closing(raw_socket(client.port)) as sock:
        f = sock.makefile("rb")
        sock.sendall(f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
                     f"Host: x\r\n\r\n".encode())
        status, headers, body = read_response(f)
        assert status == 200
        assert headers["transfer-encoding"] == "chunked"
        assert body.endswith(b"\r\n0\r\n\r\n")
        assert b"event: end" in body
        # the stream's end left the connection open for the next request
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert read_response(f)[0] == 200


def test_break_out_of_events_then_poll(service):
    gate = threading.Event()
    conns: list = []
    _, client = service(conns=conns,
                        executor=lambda: SlowSerial(gate=gate), workers=1)
    snap = client.submit(FAST)
    for event in client.events(snap["id"]):
        assert event["event"] == "status"
        break  # mid-stream: the job is still waiting on the gate
    assert client.job(snap["id"])["status"] in ("queued", "running")
    gate.set()
    assert client.wait(snap["id"])["status"] == DONE
    # the abandoned stream's connection was closed, not reused
    assert len(conns) == 2


def test_abandoned_streams_release_subscribers_and_connections(service):
    """A client leaving a stream mid-job frees the server's subscriber
    and connection at once, not at the job's next event."""
    gate = threading.Event()
    svc, client = service(executor=lambda: SlowSerial(gate=gate),
                          workers=1)
    snap = client.submit(FAST)
    job = svc.store.get(snap["id"])
    try:
        for _ in range(5):
            for event in client.events(snap["id"]):
                break  # mid-stream: the job waits on the gate
        deadline = time.monotonic() + 1.0
        while ((job.subscribers or svc._conns)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert job.subscribers == []
        assert not svc._conns, "an abandoned stream's handler is parked"
    finally:
        gate.set()
    assert client.wait(snap["id"])["status"] == DONE


def test_bytes_sent_during_a_stream_are_never_a_request(service):
    """The stream still runs to its end, then the connection closes."""
    gate = threading.Event()
    _, client = service(executor=lambda: SlowSerial(gate=gate), workers=1)
    job_id = client.submit(FAST)["id"]
    with closing(raw_socket(client.port)) as sock:
        f = sock.makefile("rb")
        sock.sendall(f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
                     f"Host: x\r\n\r\n".encode())
        assert f.readline().split()[1] == b"200"  # the stream is live
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        gate.set()
        rest = f.read()  # up to the server's close
    assert b"event: end" in rest and rest.endswith(b"\r\n0\r\n\r\n")
    assert rest.count(b"HTTP/1.1") == 0, "the healthz bytes were answered"


def test_call_inside_events_loop_uses_its_own_connection(service):
    conns: list = []
    _, client = service(conns=conns,
                        executor=lambda: SlowSerial(delay=0.05), workers=1)
    snap = client.submit(FAST_SWEEP)
    polled = []
    for event in client.events(snap["id"]):
        polled.append(client.job(snap["id"])["status"])
    assert event["event"] == "end" and polled[-1] == DONE
    assert client.result(snap["id"])["kind"] == "sweep"
    # the stream's own plus the one its loop opened, kept for result()
    assert len(conns) == 2


def test_client_reconnects_after_service_restart(service):
    svc, client = service()
    assert client.health()["status"] == "ok"
    port = client.port
    svc.stop()
    with pytest.raises(ConnectionRefusedError):
        client.health()  # reused, reset, retried once on a fresh one
    conns: list = []
    service(conns=conns, port=port)
    client.health()
    assert client.health()["status"] == "ok"
    assert len(conns) == 1


@pytest.mark.parametrize("request_head,status", [
    (b"GET /healthz HTTP/1.1\r\nX-Note: \xff\xfe\r\n\r\n", 400),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    (b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    (b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"2\r\n{}\r\n0\r\n\r\n", 501),
], ids=["non-utf8-header", "length-not-a-number", "negative-length",
        "transfer-encoding"])
def test_request_framing_errors_close_the_connection(service, request_head,
                                                     status):
    _, client = service()
    with closing(raw_socket(client.port)) as sock:
        f = sock.makefile("rb")
        sock.sendall(request_head)
        got, headers, body = read_response(f)
        assert (got, headers["connection"]) == (status, "close")
        assert json.loads(body)["error"]
        assert f.read() == b""
    assert client.health()["status"] == "ok"


def test_stop_closes_idle_kept_alive_connections(service, caplog):
    svc, client = service()
    client.wait(client.submit(FAST)["id"])
    assert client.health()["status"] == "ok"  # the connection stays idle
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        t0 = time.monotonic()
        svc.stop()
        elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    assert [r for r in caplog.records if r.name == "asyncio"] == []


# -- the client's wire contract -----------------------------------------------


def count_calls(monkeypatch, *targets: tuple[type, str]) -> Counter:
    """Wrap each ``(owner, name)`` method; the counter counts calls by
    name."""
    calls: Counter = Counter()
    for owner, name in targets:
        def wrapper(*args, _name=name, _fn=getattr(owner, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(owner, name, wrapper)
    return calls


class ScriptedServer:
    """A loopback server that answers the n-th connection's request with
    ``replies[n]`` and then closes it (``None``: reset it unanswered).

    ``accepted`` counts the connections it took."""

    def __init__(self, *replies: bytes | None) -> None:
        self.replies = list(replies)
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.replies and not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            reply = self.replies.pop(0)
            with conn:
                conn.settimeout(10.0)
                head = b""
                while b"\r\n\r\n" not in head:
                    data = conn.recv(4096)
                    if not data:
                        break
                    head += data
                if reply is None:  # an RST instead of a FIN
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))
                else:
                    conn.sendall(reply)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(10.0)
        self.listener.close()


@pytest.fixture
def scripted():
    servers: list[ScriptedServer] = []

    def make(*replies: bytes | None) -> ServiceClient:
        servers.append(ScriptedServer(*replies))
        return ServiceClient(port=servers[-1].port, timeout=10.0)

    yield make, servers
    for server in servers:
        server.close()


def chunked_head() -> bytes:
    return (b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n")


def chunk(data: bytes) -> bytes:
    return b"%x\r\n%s\r\n" % (len(data), data)


def test_short_content_length_body_raises_incomplete_read(scripted):
    make, _ = scripted
    body = b'{"status": "ok"}'
    client = make(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                  b"Content-Length: %d\r\n\r\n%s" % (len(body) + 10, body))
    with closing(client), pytest.raises(http.client.IncompleteRead) as exc:
        client.health()
    assert exc.value.partial == body


@pytest.mark.parametrize("cut", [20, 0], ids=["mid-chunk",
                                             "between-chunks"])
def test_torn_chunked_stream_yields_whole_events_then_raises(scripted, cut):
    make, _ = scripted
    first = encode_event(0, "status", {"status": "queued"})
    second = encode_event(1, "status", {"status": "running"})
    third = encode_event(2, "end", {"status": "done"})
    # the stream stops ``cut`` bytes into the third chunk, and no zero
    # chunk follows
    client = make(chunked_head() + chunk(first) + chunk(second)
                  + chunk(third)[:cut])
    got = []
    with closing(client), pytest.raises(http.client.IncompleteRead):
        for event in client.events("j000001"):
            got.append(event)
    assert [e["id"] for e in got] == [0, 1]
    assert got[1]["data"] == {"status": "running"}


def test_event_split_across_chunks_is_reassembled(scripted):
    make, _ = scripted
    wire = (encode_event(0, "status", {"status": "queued"})
            + encode_event(1, "end", {"status": "done"}))
    client = make(chunked_head() + chunk(wire[:7]) + chunk(wire[7:30])
                  + chunk(wire[30:]) + b"0\r\n\r\n")
    with closing(client):
        events = list(client.events("j000001"))
    assert [e["event"] for e in events] == ["status", "end"]


def test_reset_on_a_fresh_connection_is_not_retried(scripted):
    make, servers = scripted
    client = make(None, None)
    with closing(client), pytest.raises(ConnectionResetError):
        client.health()
    assert servers[0].accepted == 1


def test_connection_close_answer_is_not_reused(service, monkeypatch):
    conns: list = []
    _, client = service(conns=conns)
    assert client.health()["status"] == "ok"
    with pytest.raises(ServiceError) as exc:
        client.job("j999999")  # error answers say Connection: close
    assert exc.value.status == 404
    sends = count_calls(monkeypatch, (socket.socket, "sendall"))
    assert client.health()["status"] == "ok"
    # one request, on a fresh connection: no attempt on the closed one
    assert (len(conns), sum(sends.values())) == (2, 1)


def test_events_of_an_unknown_job_raise_the_server_message(service):
    # (a 422 on submit is test_malformed_spec_is_422_with_spec_error_message)
    _, client = service()
    with pytest.raises(ServiceError) as exc:
        list(client.events("j999999"))
    assert (exc.value.status, exc.value.message) == (
        404, "no such job: j999999")
    assert client.health()["status"] == "ok"


# -- work per store-hit job ---------------------------------------------------


def test_store_hit_job_is_one_write_each_way_per_exchange(service,
                                                         monkeypatch):
    _, client = service()
    cold = client.submit(FAST)
    end = list(client.events(cold["id"]))[-1]
    assert end["event"] == "end" and end["data"]["status"] == DONE

    calls = count_calls(monkeypatch, (asyncio.StreamWriter, "write"),
                        (socket.socket, "sendall"))
    snap = client.submit(FAST)
    assert snap["status"] == CACHE_HIT
    assert list(client.events(snap["id"]))[-1]["event"] == "end"
    assert client.result(snap["id"])["digest"] == end["data"]["digest"]
    # submit, events and result: one request and one response each
    assert calls == {"write": 3, "sendall": 3}


def test_each_submission_expands_and_keys_once(service, monkeypatch,
                                               tmp_path):
    """Counted from the parsed body on: a sweep expands once (it builds
    its cells to validate, at parse; ``expand()`` serves that tuple) and
    a job computes its dedupe key only when it misses the store."""
    calls = count_calls(monkeypatch, (SweepSpec, "__post_init__"),
                        (JobEnvelope, "dedupe_key"))
    expand = "__post_init__"
    state = str(tmp_path / "state")
    svc, client = service(state_dir=state)

    def job(payload) -> dict:
        snap = client.submit(payload)
        assert list(client.events(snap["id"]))[-1]["event"] == "end"
        client.result(snap["id"])
        return client.job(snap["id"])

    calls.clear()
    assert job(FAST_SWEEP)["status"] == DONE
    assert calls == {expand: 1, "dedupe_key": 1}  # a sweep miss
    calls.clear()
    assert job(FAST_SWEEP)["status"] == CACHE_HIT
    assert calls == {expand: 1}  # a store-hit sweep
    assert job(FAST)["status"] == DONE
    calls.clear()
    assert job(FAST)["status"] == CACHE_HIT
    assert calls == {}  # a single-cell hit

    # journal recovery: each sweep job is parsed once, a terminal job
    # needs no key, and a requeued one computes it once
    queued = JobStore().restore_job(
        "j000010", JobEnvelope(spec=SweepSpec(**dict(FAST_SWEEP, seed=4))))
    JobJournal(state).submit(queued)
    svc.stop()
    calls.clear()
    _, client = service(state_dir=state)
    assert client.wait(queued.id)["status"] == DONE
    assert calls == {expand: 3, "dedupe_key": 1}
