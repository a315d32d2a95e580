"""Unit tests for the observability layer itself: the tracer ring
buffer, the metrics instruments, every exporter's round-trip / schema
guarantees, the zero-overhead-when-off contract, and the
``StatsCollector`` windowed-latency regression (partial final window).
"""

import io
import json
import math

import pytest

from repro.obs import (
    EVENT_FIELDS,
    EVENT_KINDS,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    chrome_trace_events,
    event_from_dict,
    load_jsonl,
    load_metrics_csv,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_metrics_csv,
    write_metrics_json,
)
from repro.obs.metrics import Histogram


def _sample_events():
    """A small, kind-diverse event stream (nested payloads included)."""
    return [
        TraceEvent(0, "inject", 3, (17, 3, 12, 4, 0)),
        TraceEvent(1, "hop", 4, (17, "WEST", 2)),
        TraceEvent(2, "power", 5, ("ACTIVE", "DRAINING", "idle_drain", ())),
        TraceEvent(3, "psr", 5, ("logical", "EAST", "DRAINING", 9)),
        TraceEvent(4, "hs_send", 5, ("DRAIN", 9)),
        TraceEvent(5, "flov_latch", 6, (17, "WEST")),
        TraceEvent(6, "credit_relay", 6, (2, "EAST")),
        TraceEvent(7, "power", 5,
                   ("DRAINING", "SLEEP", "drain_complete",
                    ((9, "ACTIVE"), (1, "SLEEP")))),
        TraceEvent(9, "escape", 2, (23,)),
        TraceEvent(11, "eject", 12, (17, 3, 12, 11)),
    ]


# -- tracer ring buffer --------------------------------------------------------

def test_tracer_records_in_order_and_counts():
    tr = Tracer(capacity=64)
    for ev in _sample_events():
        tr.emit(ev.cycle, ev.kind, ev.node, *ev.data)
    assert tr.recorded == 10 and tr.dropped == 0
    assert tr.events() == _sample_events()


def test_tracer_ring_wraparound_keeps_newest():
    tr = Tracer(capacity=8)
    for i in range(20):
        tr.emit(i, "escape", 0, i)
    assert tr.recorded == 20
    assert tr.dropped == 12
    evs = tr.events()
    # oldest-first, exactly the final 8 emissions survive
    assert [ev.cycle for ev in evs] == list(range(12, 20))
    assert all(ev.data == (ev.cycle,) for ev in evs)


def test_tracer_wraparound_boundary_exact_capacity():
    tr = Tracer(capacity=4)
    for i in range(4):
        tr.emit(i, "escape", 0, i)
    assert tr.dropped == 0 and [e.cycle for e in tr.events()] == [0, 1, 2, 3]
    tr.emit(4, "escape", 0, 4)
    assert tr.dropped == 1 and [e.cycle for e in tr.events()] == [1, 2, 3, 4]


def test_tracer_kind_filter_and_validation():
    tr = Tracer(kinds=("power", "escape"))
    for ev in _sample_events():
        tr.emit(ev.cycle, ev.kind, ev.node, *ev.data)
    assert {ev.kind for ev in tr.events()} == {"power", "escape"}
    assert tr.recorded == 3
    with pytest.raises(ValueError, match="unknown event kinds"):
        Tracer(kinds=("power", "hs_sned"))
    with pytest.raises(ValueError, match="capacity"):
        Tracer(capacity=0)


def test_untraced_network_emits_nothing_and_stays_detached():
    """The off-switch contract: no tracer or sampler attached means the
    hot-path guards see None everywhere and the run completes with zero
    observability state allocated."""
    from repro.config import NoCConfig
    from repro.gating.schedule import StaticGating
    from repro.noc.network import Network
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.patterns import get_pattern

    cfg = NoCConfig(mechanism="gflov", seed=3)
    net = Network(cfg)
    net.set_gating(StaticGating(cfg.num_routers, 0.5, seed=3))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.05, seed=3)
    gen.run(500)
    assert net._tracer is None and net._metrics is None
    assert net._obs_tick is None
    assert all(r._tracer is None for r in net.routers)


# -- event taxonomy / JSONL ----------------------------------------------------

def test_event_dict_round_trip_all_kinds():
    evs = _sample_events()
    assert {ev.kind for ev in evs} <= set(EVENT_KINDS)
    for ev in evs:
        doc = ev.as_dict()
        # payloads flatten under their taxonomy field names
        for name, value in zip(EVENT_FIELDS[ev.kind], ev.data):
            assert name in doc
        assert event_from_dict(doc) == ev


def test_event_dict_round_trip_survives_json():
    for ev in _sample_events():
        assert event_from_dict(json.loads(json.dumps(ev.as_dict()))) == ev


def test_jsonl_round_trip_via_path(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    n = write_jsonl(_sample_events(), path)
    assert n == 10
    assert load_jsonl(path) == _sample_events()


def test_jsonl_round_trip_via_filehandle():
    buf = io.StringIO()
    write_jsonl(_sample_events(), buf)
    buf.seek(0)
    assert load_jsonl(buf) == _sample_events()
    assert not buf.closed  # caller-owned handles stay open


# -- Chrome trace --------------------------------------------------------------

def test_chrome_trace_schema_is_valid():
    entries = chrome_trace_events(_sample_events())
    assert validate_chrome_trace({"traceEvents": entries}) == []


def test_chrome_trace_power_slices():
    entries = chrome_trace_events(_sample_events())
    slices = [e for e in entries if e["ph"] == "X" and e["tid"] == 5]
    names = [(s["name"], s["ts"], s["dur"]) for s in slices]
    # ACTIVE since 0, DRAINING 2..7, SLEEP open until horizon (11 + 1)
    assert ("ACTIVE", 0, 2) in names
    assert ("DRAINING", 2, 5) in names
    assert ("SLEEP", 7, 5) in names


def test_chrome_trace_metadata_and_instants():
    evs = _sample_events()
    entries = chrome_trace_events(evs)
    meta = [e for e in entries if e["ph"] == "M"]
    assert any(e["name"] == "process_name" and e["args"]["name"] == "noc"
               for e in meta)
    thread_names = {e["args"]["name"] for e in meta
                    if e["name"] == "thread_name"}
    assert thread_names == {f"router {n}" for n in {ev.node for ev in evs}}
    instants = [e for e in entries if e["ph"] == "i"]
    # every source event contributes exactly one instant
    assert len(instants) == len(evs)
    hop = next(e for e in instants if e["name"] == "hop")
    assert hop["args"] == {"cycle": 1, "kind": "hop", "node": 4,
                           "pid": 17, "from_dir": "WEST", "vc": 2}


def test_chrome_trace_file_is_perfetto_loadable_shape(tmp_path):
    path = str(tmp_path / "trace.json")
    n = write_chrome_trace(_sample_events(), path)
    with open(path) as fh:
        doc = json.load(fh)
    assert validate_chrome_trace(doc) == []
    assert len(doc["traceEvents"]) == n
    assert doc["otherData"]["time_unit"] == "cycles"


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    bad = {"traceEvents": [
        {"ph": "i", "pid": 0, "ts": 1},                  # missing name
        {"name": "x", "ph": "Z", "pid": 0, "ts": 1},     # bad ph
        {"name": "x", "ph": "i", "pid": 0},              # missing ts
        {"name": "x", "ph": "X", "pid": 0, "ts": 1},     # X without dur
    ]}
    problems = validate_chrome_trace(bad)
    assert len(problems) == 4


# -- histogram bucket math -----------------------------------------------------

def test_histogram_inclusive_upper_edges_and_overflow():
    h = Histogram("h", bounds=(1, 2, 4, 8))
    for v in (0.5, 1, 1.5, 2, 3, 4, 7, 8, 9, 1000):
        h.observe(v)
    #  {0.5,1}<=1  {1.5,2}<=2  {3,4}<=4  {7,8}<=8  {9,1000} overflow
    assert h.counts == [2, 2, 2, 2, 2]
    assert h.count == 10
    assert h.min == 0.5 and h.max == 1000
    assert math.isclose(h.total, 0.5 + 1 + 1.5 + 2 + 3 + 4 + 7 + 8 + 9 + 1000)
    assert math.isclose(h.mean, h.total / 10)


def test_histogram_as_dict():
    h = Histogram("h", bounds=(10, 20, 30))
    for v in (5, 15, 25, 35):
        h.observe(v)
    d = h.as_dict()
    assert d["bounds"] == [10.0, 20.0, 30.0]
    assert d["counts"] == [1, 1, 1, 1]
    assert d["count"] == 4 and d["min"] == 5 and d["max"] == 35


def test_histogram_validation():
    with pytest.raises(ValueError, match="at least one"):
        Histogram("h", bounds=())
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram("h", bounds=(1, 1, 2))
    empty = Histogram("h")
    assert empty.mean == 0.0
    assert empty.as_dict()["min"] is None


# -- registry + metrics exporters ----------------------------------------------

def _populated_registry():
    reg = MetricsRegistry()
    reg.counter("flits.sent").inc(7)
    reg.gauge("fabric.flits").set(3.5)
    reg.histogram("drain", bounds=(4, 16)).observe(5)
    reg.sample(0)
    reg.counter("flits.sent").inc(3)
    reg.gauge("late.metric").set(1.0)   # appears only in the second row
    reg.sample(200)
    return reg


def test_registry_create_on_first_use_and_type_guard():
    reg = MetricsRegistry()
    assert reg.counter("c") is reg.counter("c")
    with pytest.raises(TypeError, match="already registered"):
        reg.gauge("c")


def test_registry_sampling_rows():
    reg = _populated_registry()
    assert [row["cycle"] for row in reg.rows] == [0.0, 200.0]
    assert reg.rows[0]["flits.sent"] == 7
    assert reg.rows[1]["flits.sent"] == 10
    assert "late.metric" not in reg.rows[0]
    assert reg.rows[0]["drain.count"] == 1
    assert reg.rows[0]["drain.mean"] == 5.0


def test_metrics_csv_round_trip(tmp_path):
    reg = _populated_registry()
    path = str(tmp_path / "metrics.csv")
    assert write_metrics_csv(reg, path) == 2
    rows = load_metrics_csv(path)
    assert len(rows) == 2
    assert rows[0]["cycle"] == 0.0 and rows[1]["cycle"] == 200.0
    # blank cell (late metric, first row) loads as absent, not 0
    assert "late.metric" not in rows[0] and rows[1]["late.metric"] == 1.0
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "cycle" and header[1:] == sorted(header[1:])


def test_metrics_json_dump(tmp_path):
    reg = _populated_registry()
    path = str(tmp_path / "metrics.json")
    write_metrics_json(reg, path)
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["instruments"]["drain"]["bounds"] == [4.0, 16.0]
    assert doc["instruments"]["flits.sent"]["value"] == 10
    assert len(doc["samples"]) == 2


# -- StatsCollector windowed latency (partial-window regression) ---------------

def _collector_with_samples(samples):
    from repro.noc.stats import StatsCollector

    sc = StatsCollector(keep_samples=True)
    sc.samples = list(samples)
    sc.measured_packets = len(samples)
    return sc


def test_latency_windows_flag_partial_tail():
    """A run rarely ends on a window boundary: the final window must be
    flagged ``partial`` so plots/tables can render it tentatively rather
    than as a full-width average (the historical API silently returned
    it as if complete)."""
    sc = _collector_with_samples([(0, 10), (99, 20), (100, 30), (150, 50)])
    wins = sc.latency_windows(100)
    assert [(w.start, w.end, w.avg, w.count) for w in wins] == [
        (0, 100, 15.0, 2), (100, 200, 40.0, 2)]
    assert [w.partial for w in wins] == [False, True]  # horizon = 151


def test_latency_windows_explicit_horizon():
    sc = _collector_with_samples([(0, 10), (150, 50)])
    full = sc.latency_windows(100, end=200)
    assert [w.partial for w in full] == [False, False]
    cut = sc.latency_windows(100, end=151)
    assert [w.partial for w in cut] == [False, True]


def test_latency_windows_validation():
    sc = _collector_with_samples([(0, 10)])
    with pytest.raises(ValueError, match="window"):
        sc.latency_windows(0)
    from repro.noc.stats import StatsCollector

    with pytest.raises(RuntimeError, match="keep_samples"):
        StatsCollector().latency_windows(100)
    assert _collector_with_samples([]).latency_windows(100) == []
