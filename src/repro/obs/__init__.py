"""Observability: structured event tracing + metrics for the simulator.

An opt-in, near-zero-overhead-when-off subsystem (see
``docs/observability.md``):

* :class:`Tracer` — a ring-buffered structured event recorder with a
  typed event taxonomy (:mod:`repro.obs.events`); attach with
  :meth:`repro.noc.network.Network.attach_tracer`.
* :class:`MetricsRegistry` / :class:`NetworkSampler` — counters, gauges
  and histograms sampled on a configurable cadence; attach with
  :meth:`repro.noc.network.Network.attach_metrics`.
* Exporters — JSONL and Chrome-trace (``chrome://tracing`` / Perfetto)
  for traces, CSV/JSON for metrics (:mod:`repro.obs.export`).

Hot-path contract: instrumented code guards every emission behind one
``if <x>._tracer is not None`` test; with nothing attached, the
simulator's per-cycle cost is one extra pointer comparison per kernel
step and per hook site — pinned by the untraced ``kernel_*`` workloads
of ``bench/`` and ``tests/test_obs_exporters.py``.
"""

from .analysis import (REPORT_SCHEMA, AnalysisReport, CongestionReport,
                       HandshakeReport, Journey, JourneySet,
                       LatencyAttribution, analyze_trace, attribute_latency,
                       congestion_report, handshake_report,
                       reconstruct_journeys, validate_report)
from .events import (CONTROL_KINDS, EVENT_FIELDS, EVENT_KINDS, FLIT_KINDS,
                     TraceEvent, event_from_dict)
from .export import (chrome_trace_events, load_jsonl, load_metrics_csv,
                     spans_to_chrome_trace, validate_chrome_trace,
                     write_chrome_trace, write_jsonl, write_metrics_csv,
                     write_metrics_json, write_span_chrome_trace)
from .logging import JsonLogFormatter, configure_json_logging
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, parse_prometheus_text,
                      prometheus_name)
from .profile import (PHASES, PROFILE_SCHEMA, KernelProfiler, ProfileResult,
                      attach_profiler, profile_run)
from .sampler import DEFAULT_EVERY, NetworkSampler
from .spans import (DEFAULT_SPAN_CAPACITY, Span, SpanCarrier, SpanContext,
                    SpanTracer, current_span_context, finished_span,
                    validate_span_tree)
from .tracer import DEFAULT_CAPACITY, Tracer

__all__ = [
    "TraceEvent", "EVENT_KINDS", "EVENT_FIELDS", "FLIT_KINDS",
    "CONTROL_KINDS", "event_from_dict",
    "Tracer", "DEFAULT_CAPACITY",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "NetworkSampler", "DEFAULT_EVERY",
    "write_jsonl", "load_jsonl", "write_chrome_trace", "chrome_trace_events",
    "validate_chrome_trace", "write_metrics_csv", "load_metrics_csv",
    "write_metrics_json",
    # analysis (PR 4)
    "AnalysisReport", "CongestionReport", "HandshakeReport", "Journey",
    "JourneySet", "LatencyAttribution", "REPORT_SCHEMA", "analyze_trace",
    "attribute_latency", "congestion_report", "handshake_report",
    "reconstruct_journeys", "validate_report",
    # profiler (PR 4)
    "KernelProfiler", "ProfileResult", "PHASES", "PROFILE_SCHEMA",
    "attach_profiler", "profile_run",
    # distributed spans + telemetry (PR 9)
    "Span", "SpanCarrier", "SpanContext", "SpanTracer",
    "DEFAULT_SPAN_CAPACITY", "current_span_context", "finished_span",
    "validate_span_tree", "spans_to_chrome_trace", "write_span_chrome_trace",
    "JsonLogFormatter", "configure_json_logging",
    "parse_prometheus_text", "prometheus_name",
]
