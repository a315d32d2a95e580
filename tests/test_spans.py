"""Span tracer unit tests + engine/executor trace propagation.

Covers the PR 9 tentpole contracts:

* SpanContext serialization (dict/header round-trips, pickling).
* SpanTracer buffering: bounded capacity, drop accounting, ingest,
  thread-safety of the finish path.
* validate_span_tree's defect taxonomy.
* Chrome-trace export of spans through the existing validator.
* Propagation through the engine: cell spans opened in pool worker
  processes come back with kernel phase attributes; cache probes and
  writes are spanned; traced and untraced runs produce identical
  results (digest stability).
* Prometheus exposition + strict parser round-trip.
* JSON log lines carry trace/span ids.
"""

from __future__ import annotations

import io
import json
import logging
import pickle
import threading

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import (BatchedExecutor, ParallelSweep,
                                    PoolExecutor, SerialExecutor, SweepTask,
                                    _execute_task)
from repro.obs.export import spans_to_chrome_trace, validate_chrome_trace
from repro.obs.logging import JsonLogFormatter, configure_json_logging
from repro.obs.metrics import (MetricsRegistry, parse_prometheus_text,
                               prometheus_name)
from repro.obs.spans import (SpanCarrier, SpanContext, SpanTracer,
                             current_span_context, finished_span,
                             validate_span_tree)
from repro.spec import ExperimentSpec

FAST = dict(mechanism="baseline", pattern="uniform", rate=0.02,
            warmup=50, measure=150, overrides={"width": 4, "height": 4})


def fast_task(seed: int = 1) -> SweepTask:
    return SweepTask(ExperimentSpec(seed=seed, **FAST))


# -- SpanContext --------------------------------------------------------------

def test_context_round_trips():
    ctx = SpanContext.new_root()
    assert ctx.parent_id is None
    assert pickle.loads(pickle.dumps(ctx)) == ctx


def test_context_child_keeps_trace_and_links_parent():
    root = SpanContext.new_root()
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id


# -- SpanTracer ---------------------------------------------------------------

def test_span_lifecycle_and_export_order():
    tracer = SpanTracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", parent=outer.context) as inner:
            inner.set_attribute("k", 1)
    spans = tracer.export()
    assert [s["name"] for s in spans] == ["inner", "outer"] or \
        [s["name"] for s in spans] == ["outer", "inner"]
    assert validate_span_tree(spans) == []
    inner_d = next(s for s in spans if s["name"] == "inner")
    assert inner_d["attributes"]["k"] == 1
    assert inner_d["parent_id"] == outer.context.span_id
    assert all(s["duration_ns"] >= 0 for s in spans)


def test_span_error_status_on_exception():
    tracer = SpanTracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    (span,) = tracer.export()
    assert span["status"] == "error"


def test_current_span_context_restored():
    tracer = SpanTracer()
    assert current_span_context() is None
    with tracer.span("a") as sp:
        assert current_span_context() == sp.context
    assert current_span_context() is None


def test_bounded_buffer_counts_drops():
    tracer = SpanTracer(capacity=3)
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    assert tracer.dropped == 2
    assert tracer.recorded == 5
    assert [s["name"] for s in tracer.export()] == ["s2", "s3", "s4"]


def test_end_is_idempotent():
    tracer = SpanTracer()
    sp = tracer.start("once")
    sp.end()
    first = sp.duration_ns
    sp.end()
    assert sp.duration_ns == first
    assert len(tracer.export()) == 1


def test_ingest_adopts_foreign_spans():
    ctx = SpanContext.new_root()
    rec = finished_span("remote", ctx.child(), start_unix_ns=123,
                        duration_ns=456, attributes={"pid": 42})
    tracer = SpanTracer()
    with tracer.span("local", context=ctx):
        pass
    assert tracer.ingest([rec]) == 1
    assert validate_span_tree(tracer.export()) == []


def test_tracer_finish_is_thread_safe():
    tracer = SpanTracer(capacity=10_000)

    def spin():
        for _ in range(200):
            with tracer.span("t"):
                pass

    threads = [threading.Thread(target=spin) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert tracer.recorded == 1600


# -- validate_span_tree -------------------------------------------------------

def test_validator_flags_defects():
    assert validate_span_tree([]) == ["trace has no spans"]
    root = SpanContext.new_root()
    ok = [finished_span("r", root, start_unix_ns=1, duration_ns=1),
          finished_span("c", root.child(), start_unix_ns=2, duration_ns=1)]
    assert validate_span_tree(ok) == []
    # orphan parent
    orphan = ok + [finished_span(
        "o", SpanContext(root.trace_id, "ffff", "nope"),
        start_unix_ns=3, duration_ns=1)]
    assert any("orphan" in p for p in validate_span_tree(orphan))
    # two roots
    two = ok + [finished_span("r2", SpanContext(root.trace_id, "eeee"),
                              start_unix_ns=3, duration_ns=1)]
    assert any("exactly one root" in p for p in validate_span_tree(two))
    # duplicate span ids
    dup = ok + [dict(ok[1])]
    assert any("duplicate" in p for p in validate_span_tree(dup))
    # mixed traces
    mixed = ok + [finished_span("x", SpanContext("other", "abcd"),
                                start_unix_ns=3, duration_ns=1)]
    problems = validate_span_tree(mixed)
    assert any("multiple trace ids" in p for p in problems)


# -- Chrome export ------------------------------------------------------------

def test_span_chrome_export_is_valid_and_tracked_by_pid():
    root = SpanContext.new_root()
    spans = [
        finished_span("job", root, start_unix_ns=1_000_000,
                      duration_ns=5_000),
        finished_span("cell.run", root.child(), start_unix_ns=1_002_000,
                      duration_ns=2_000, attributes={"pid": 777}),
    ]
    doc = spans_to_chrome_trace(spans)
    assert validate_chrome_trace(doc) == []
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in slices} == {"job", "cell.run"}
    # worker pid gets its own lane with a thread_name metadata record
    names = [e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"]
    assert "worker pid 777" in names
    # relative microsecond timestamps
    job = next(e for e in slices if e["name"] == "job")
    assert job["ts"] == 0.0 and job["dur"] == 5.0


# -- engine propagation -------------------------------------------------------

def test_execute_task_untraced_returns_plain_result():
    res = _execute_task(fast_task())
    assert not isinstance(res, SpanCarrier)


def test_execute_task_traced_returns_carrier_with_phases():
    task = fast_task()
    task.span_context = SpanContext.new_root()
    out = _execute_task(task)
    assert isinstance(out, SpanCarrier)
    (span,) = out.spans
    assert span["name"] == "cell.run"
    assert span["span_id"] == task.span_context.span_id
    attrs = span["attributes"]
    for phase in ("handshake", "delivery", "evaluate", "sampler"):
        assert f"kernel.{phase}_ns" in attrs
    assert attrs["kernel.cycles"] >= 200  # warmup + measure (+ drain)
    assert attrs["pid"] > 0


def test_traced_results_identical_to_untraced(tmp_path):
    tasks = [fast_task(seed=s) for s in (1, 2)]
    plain = ParallelSweep(executor=SerialExecutor(),
                          use_cache=False).run(tasks)
    tracer = SpanTracer()
    traced = ParallelSweep(executor=SerialExecutor(), use_cache=False,
                           span_tracer=tracer).run(tasks)
    for a, b in zip(plain, traced):
        assert a == b  # digest stability: tracing never changes results
    spans = tracer.export()
    assert validate_span_tree(spans) == []
    assert sum(s["name"] == "cell.run" for s in spans) == 2
    assert sum(s["name"] == "sweep.run" for s in spans) == 1


@pytest.mark.slow
def test_pool_ships_spans_back_from_workers(tmp_path):
    tracer = SpanTracer()
    eng = ParallelSweep(executor=PoolExecutor(2),
                        cache=ResultCache(tmp_path / "c"),
                        span_tracer=tracer)
    eng.run([fast_task(seed=s) for s in (1, 2)])
    spans = tracer.export()
    assert validate_span_tree(spans) == []
    cell_pids = {s["attributes"]["pid"] for s in spans
                 if s["name"] == "cell.run"}
    if eng.last_mode == "parallel":
        import os
        assert os.getpid() not in cell_pids  # opened in worker processes
    names = [s["name"] for s in spans]
    assert names.count("cache.probe") == 2
    assert names.count("cache.write") == 2


def test_cache_hits_traced_as_probes(tmp_path):
    cache = ResultCache(tmp_path / "c")
    ParallelSweep(executor=SerialExecutor(), cache=cache).run([fast_task()])
    tracer = SpanTracer()
    eng = ParallelSweep(executor=SerialExecutor(), cache=cache,
                        span_tracer=tracer)
    eng.run([fast_task()])
    assert eng.last_mode == "cached"
    spans = tracer.export()
    assert validate_span_tree(spans) == []
    probe = next(s for s in spans if s["name"] == "cache.probe")
    assert probe["attributes"]["cache.hit"] is True
    assert all(s["name"] != "cell.run" for s in spans)


def test_batched_executor_fabricates_shared_interval_spans(tmp_path):
    tracer = SpanTracer()
    eng = ParallelSweep(executor=BatchedExecutor(4), use_cache=False,
                        span_tracer=tracer)
    eng.run([fast_task(seed=s) for s in (1, 2, 3)])
    spans = [s for s in tracer.export() if s["name"] == "cell.run"]
    assert len(spans) == 3
    for s in spans:
        assert s["attributes"]["executor"] == "batched"
        assert s["attributes"]["batch.shared_interval"] is True
        assert s["attributes"]["batch.size"] == 3
    assert validate_span_tree(tracer.export()) == []


def test_span_context_never_in_cache_key(tmp_path):
    a, b = fast_task(), fast_task()
    b.span_context = SpanContext.new_root()
    assert a == b  # compare=False: tracing is identity-neutral
    # a traced run files its result where an untraced one looks for it
    cache = ResultCache(tmp_path / "cache")
    ParallelSweep(max_workers=1, cache=cache,
                  span_tracer=SpanTracer()).run([b])
    warm = ParallelSweep(max_workers=1, cache=cache)
    warm.run([a])
    assert warm.last_cache_hits == 1


# -- Prometheus exposition ----------------------------------------------------

def test_prometheus_name_sanitizes():
    assert prometheus_name("service.queue.depth") == "service_queue_depth"
    assert prometheus_name("9lives") == "_9lives"


def test_prometheus_text_round_trips():
    reg = MetricsRegistry()
    reg.counter("svc.jobs").inc(5)
    reg.gauge("svc.depth").set(2.5)
    h = reg.histogram("svc.wait_seconds", (0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    text = reg.prometheus_text({"svc.jobs": "jobs submitted"})
    assert "# HELP svc_jobs jobs submitted" in text
    assert "# TYPE svc_wait_seconds histogram" in text
    fams = parse_prometheus_text(text)
    assert fams["svc_jobs"]["samples"] == [("svc_jobs", {}, 5.0)]
    hist = fams["svc_wait_seconds"]
    buckets = {lbl["le"]: v for n, lbl, v in hist["samples"]
               if n == "svc_wait_seconds_bucket"}
    assert buckets == {"0.01": 1.0, "0.1": 2.0, "1": 3.0, "+Inf": 4.0}
    (total,) = [v for n, _, v in hist["samples"]
                if n == "svc_wait_seconds_sum"]
    assert total == pytest.approx(5.555)


def test_prometheus_empty_histogram_shows_zeros():
    reg = MetricsRegistry()
    reg.histogram("svc.wait_seconds", (0.1, 1.0))
    fams = parse_prometheus_text(reg.prometheus_text())
    samples = dict((n, v) for n, _, v in fams["svc_wait_seconds"]["samples"])
    assert samples["svc_wait_seconds_count"] == 0.0
    assert samples["svc_wait_seconds_sum"] == 0.0


@pytest.mark.parametrize("bad", [
    "no_type_decl 1",
    "# TYPE x wat\nx 1",
    "# TYPE x counter\nx notanumber",
    "# TYPE h histogram\n"
    'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\nh_sum 1\nh_count 3',
    "# TYPE h histogram\n"
    'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\nh_sum 1\nh_count 99',
])
def test_prometheus_parser_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_prometheus_text(bad)


# -- JSON logging -------------------------------------------------------------

def _record(msg: str, **extra) -> logging.LogRecord:
    rec = logging.LogRecord("repro.test", logging.INFO, __file__, 1,
                            msg, None, None)
    for k, v in extra.items():
        setattr(rec, k, v)
    return rec


def test_json_formatter_emits_one_json_line_with_extras():
    fmt = JsonLogFormatter()
    doc = json.loads(fmt.format(_record("hello", job_id="j000001",
                                        trace_id="t1", span_id="s1")))
    assert doc["message"] == "hello"
    assert doc["level"] == "INFO"
    assert doc["trace_id"] == "t1" and doc["span_id"] == "s1"
    assert doc["job_id"] == "j000001"


def test_json_formatter_picks_up_ambient_span():
    fmt = JsonLogFormatter()
    tracer = SpanTracer()
    with tracer.span("ambient") as sp:
        doc = json.loads(fmt.format(_record("inside")))
    assert doc["trace_id"] == sp.context.trace_id
    assert doc["span_id"] == sp.context.span_id
    doc2 = json.loads(fmt.format(_record("outside")))
    assert "trace_id" not in doc2


def test_configure_json_logging_idempotent():
    stream = io.StringIO()
    h1 = configure_json_logging(logger="repro.testlogger", stream=stream)
    h2 = configure_json_logging(logger="repro.testlogger", stream=stream)
    assert h1 is h2
    logging.getLogger("repro.testlogger").info("ping", extra={"n": 1})
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    assert len(lines) == 1 and lines[0]["n"] == 1
    logging.getLogger("repro.testlogger").removeHandler(h1)
