"""Service telemetry end-to-end: traces, Prometheus, SSE metrics, flush.

Boots real :class:`ExperimentService` instances (same harness as
``test_service.py``) and checks the PR 9 observability surface:

* ``GET /jobs/<id>/trace`` returns a well-formed span tree — single
  root, no orphans, worker ``cell.run`` spans nested under the job —
  and a valid Chrome-trace document with ``?format=chrome``;
* ``GET /metrics?format=prometheus`` parses under the strict exposition
  parser, with the queue-wait histogram present (zeros included) from
  boot;
* the default ``name value`` metrics format is unchanged (CI greps and
  :meth:`ServiceClient.metric` depend on it);
* SSE streams carry live per-job ``metrics`` events with contiguous ids;
* stopping a service with ``telemetry_dir`` set flushes spans + metrics
  to disk;
* service log records carry job/trace correlation ids through the JSON
  formatter;
* acceptance: the root span decomposes into queue-wait + per-cell child
  spans whose durations sum to the job wall-clock within 5%.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.harness.cache import ResultCache
from repro.obs.export import validate_chrome_trace
from repro.obs.logging import JsonLogFormatter
from repro.obs.metrics import parse_prometheus_text
from repro.obs.spans import validate_span_tree
from repro.service import (DONE, ExperimentService, ServiceClient,
                           ServiceError)

pytestmark = pytest.mark.service

FAST = {"mechanism": "baseline", "pattern": "uniform", "rate": 0.05,
        "warmup": 50, "measure": 200, "seed": 7,
        "overrides": {"width": 4, "height": 4}}

#: calibrated ~1s cell: long enough that service overheads (HTTP parse,
#: queueing, result storage) fit inside the 5% decomposition tolerance
HEAVY = {"mechanism": "gflov", "pattern": "uniform", "rate": 0.05,
         "gated_fraction": 0.4, "warmup": 200, "measure": 2000,
         "seed": 3, "overrides": {"width": 8, "height": 8}}


@pytest.fixture
def service(tmp_path):
    started, clients = [], []

    def boot(**kw) -> tuple[ExperimentService, ServiceClient]:
        kw.setdefault("executor", "serial")
        kw.setdefault("workers", 2)
        kw.setdefault("cache", ResultCache(tmp_path / "cache"))
        svc = ExperimentService(**kw)
        port = svc.start()
        started.append(svc)
        clients.append(ServiceClient(port=port))
        return svc, clients[-1]

    yield boot
    for client in clients:
        client.close()
    for svc in started:
        svc.stop()


def by_name(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


# -- trace endpoint -----------------------------------------------------------

def test_trace_endpoint_returns_valid_tree(service):
    _, client = service()
    snap = client.wait(client.submit(FAST)["id"])
    assert snap["status"] == DONE
    doc = client.trace(snap["id"])
    assert doc["job"] == snap["id"]
    assert doc["complete"] is True
    assert doc["dropped"] == 0
    spans = doc["spans"]
    assert doc["span_count"] == len(spans)
    assert validate_span_tree(spans) == []
    names = [s["name"] for s in spans]
    for expected in ("job", "submit.parse", "cache.probe", "queue.wait",
                     "sweep.run", "cell.run", "cache.write"):
        assert expected in names, f"missing span {expected!r} in {names}"
    # parentage: job is the root; sweep.run hangs off it; the worker's
    # cell.run span nests under sweep.run, never floats
    (root,) = [s for s in spans if s["parent_id"] is None]
    assert root["name"] == "job"
    assert doc["trace_id"] == root["trace_id"] == snap["trace_id"]
    (sweep,) = by_name(spans, "sweep.run")
    assert sweep["parent_id"] == root["span_id"]
    (cell,) = by_name(spans, "cell.run")
    assert cell["parent_id"] == sweep["span_id"]
    assert cell["attributes"]["cell.mechanism"] == "baseline"
    assert cell["attributes"]["pid"] > 0
    assert root["attributes"]["job.status"] == DONE
    (queue,) = by_name(spans, "queue.wait")
    assert queue["parent_id"] == root["span_id"]


def test_trace_chrome_format_is_valid(service):
    _, client = service()
    snap = client.wait(client.submit(FAST)["id"])
    doc = client.trace(snap["id"], chrome=True)
    assert validate_chrome_trace(doc) == []
    slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert {"job", "cell.run"} <= {e["name"] for e in slices}


def test_trace_unknown_job_is_404(service):
    _, client = service()
    with pytest.raises(ServiceError) as exc:
        client.trace("j999999")
    assert exc.value.status == 404


def test_cache_hit_trace_has_probe_but_no_cells(service):
    _, client = service()
    client.wait(client.submit(FAST)["id"])
    snap = client.wait(client.submit(FAST)["id"])
    assert snap["status"] == "cache_hit"
    spans = client.trace(snap["id"])["spans"]
    assert validate_span_tree(spans) == []
    (probe,) = by_name(spans, "cache.probe")
    assert probe["attributes"]["cache.hit"] is True
    assert by_name(spans, "cell.run") == []
    assert by_name(spans, "sweep.run") == []


def test_snapshot_carries_trace_id_and_queue_wait(service):
    _, client = service()
    snap = client.wait(client.submit(FAST)["id"])
    assert len(snap["trace_id"]) == 32
    assert snap["queue_wait_s"] >= 0.0


# -- Prometheus exposition ----------------------------------------------------

def test_prometheus_exposition_parses_at_boot(service):
    # Satellite: the queue-wait histogram family is pre-created, so a
    # fresh service already exposes explicit zeros for it.
    _, client = service()
    fams = parse_prometheus_text(client.metrics_prometheus())
    wait = fams["service_queue_wait_seconds"]
    assert wait["type"] == "histogram"
    samples = {n: v for n, lbl, v in wait["samples"] if not lbl}
    assert samples["service_queue_wait_seconds_count"] == 0.0
    assert samples["service_queue_wait_seconds_sum"] == 0.0
    assert fams["service_jobs_submitted"]["samples"] == [
        ("service_jobs_submitted", {}, 0.0)]
    assert "service_job_wall_seconds" in fams


def test_prometheus_counts_move_after_job(service):
    _, client = service()
    client.wait(client.submit(FAST)["id"])
    fams = parse_prometheus_text(client.metrics_prometheus())
    flat = {n: v for fam in fams.values()
            for n, lbl, v in fam["samples"] if not lbl}
    assert flat["service_jobs_completed"] == 1.0
    assert flat["service_cells_executed"] == 1.0
    assert flat["service_queue_wait_seconds_count"] == 1.0
    # every bucket family is cumulative and help'd
    assert fams["service_queue_wait_seconds"]["help"]


def test_default_metrics_format_unchanged(service):
    # CI greps `^service.cells.executed 1` and ServiceClient.metric()
    # parses `name value` lines — the default format must not change.
    _, client = service()
    client.wait(client.submit(FAST)["id"])
    text = client.metrics_text()
    assert "service.cells.executed 1" in text.splitlines()
    assert client.metric("service.cells.executed") == 1.0


# -- SSE live metrics ---------------------------------------------------------

def test_sse_stream_includes_metrics_events(service):
    _, client = service()
    job_id = client.submit(FAST)["id"]
    events = list(client.events(job_id))
    kinds = [e["event"] for e in events]
    assert "metrics" in kinds
    assert kinds[-1] == "end"
    ids = [e["id"] for e in events]
    assert ids == list(range(len(events)))  # contiguous, no gaps
    metric_evts = [e["data"] for e in events if e["event"] == "metrics"]
    for m in metric_evts:
        assert set(m) >= {"done", "total", "cache_hit_cells",
                          "elapsed_s", "cells_per_s", "queue_wait_s"}
        assert m["total"] == 1
    assert metric_evts[-1]["done"] == 1


# -- telemetry flush + shutdown ----------------------------------------------

def test_stop_flushes_telemetry_dir(service, tmp_path):
    out = tmp_path / "telemetry"
    svc, client = service(telemetry_dir=str(out))
    snap = client.wait(client.submit(FAST)["id"])
    svc.stop()
    spans_path = out / "spans.jsonl"
    metrics_path = out / "metrics.json"
    assert spans_path.is_file() and metrics_path.is_file()
    spans = [json.loads(line) for line in
             spans_path.read_text().splitlines()]
    mine = [s for s in spans if s["trace_id"] == snap["trace_id"]]
    assert validate_span_tree(mine) == []
    metrics = json.loads(metrics_path.read_text())
    assert metrics["instruments"]["service.jobs.completed"]["value"] == 1


def test_flush_telemetry_explicit_directory(service, tmp_path):
    svc, client = service()
    client.wait(client.submit(FAST)["id"])
    paths = svc.flush_telemetry(str(tmp_path / "t"))
    assert paths is not None
    assert (tmp_path / "t" / "spans.jsonl").is_file()


def test_flush_without_directory_is_noop(service):
    svc, _ = service()
    assert svc.flush_telemetry() is None


# -- log correlation ----------------------------------------------------------

def test_service_logs_carry_job_and_trace_ids(service):
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonLogFormatter())
    logger = logging.getLogger("repro.service")
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        _, client = service()
        snap = client.wait(client.submit(FAST)["id"])
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    messages = {l["message"] for l in lines}
    assert {"job submitted", "job started", "job finished"} <= messages
    for line in lines:
        if line.get("job_id") == snap["id"]:
            assert line["trace_id"] == snap["trace_id"]


# -- acceptance: root-span decomposition --------------------------------------

@pytest.mark.slow
def test_root_span_decomposes_into_children_within_5pct(service):
    """The ISSUE acceptance gate: for a completed job, queue-wait plus
    per-cell execution spans account for the root span's wall-clock
    within 5% — i.e. tracing observes where the time actually went and
    the service adds no unexplained overhead.

    Uses a ~1s cell so fixed service overheads (HTTP parse, dispatch,
    result storage) sit well inside the tolerance; serial executor so
    child spans never overlap.
    """
    _, client = service(executor="serial", workers=1)
    snap = client.wait(client.submit(HEAVY)["id"], timeout=300.0)
    assert snap["status"] == DONE
    spans = client.trace(snap["id"])["spans"]
    assert validate_span_tree(spans) == []
    (root,) = [s for s in spans if s["parent_id"] is None]
    accounted = sum(s["duration_ns"] for s in spans
                    if s["name"] in ("queue.wait", "cell.run"))
    ratio = accounted / root["duration_ns"]
    assert 0.95 <= ratio <= 1.0, (
        f"queue.wait + cell.run cover {ratio:.1%} of the root span "
        f"({root['duration_ns'] / 1e9:.3f}s)")
