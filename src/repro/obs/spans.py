"""Distributed span tracing for the service → executor → worker path.

The in-sim observability layer (PR 3/4) decomposes *simulated* latency
exactly; this module does the same for *wall-clock* service time.  A
trace is a tree of spans — one root per submitted job — and every span
records who its parent is, when it started (epoch ns, comparable
across processes on one host) and how long it ran (monotonic-clock
delta, immune to wall-clock steps).  The pieces:

* :class:`SpanContext` — the serializable (trace_id, span_id,
  parent_id) triple that crosses process and transport boundaries.  It
  rides inside :class:`~repro.harness.parallel.SweepTask`, so a pool
  worker opens its ``cell.run`` span *in the worker process* with the
  parentage the engine chose, and the finished span travels back with
  the result in a :class:`SpanCarrier`.
* :class:`Span` — one timed operation with typed attributes and an
  ``ok``/``error`` status.
* :class:`SpanTracer` — a thread-safe, bounded in-memory buffer of
  finished spans (oldest dropped first, drops counted), plus the span
  factory.  Dependency-free: stdlib only, importable from worker
  processes without dragging the simulator in.

Overhead contract (same discipline as :class:`~repro.obs.Tracer`):
every integration site guards on one ``is not None`` test — an
untraced :class:`SweepTask` costs a single attribute check, an
untraced cache probe one keyword default.  Tracing attaches around the
simulation, never inside the per-cycle kernels.

Wire format: finished spans are plain dicts (:meth:`Span.as_dict`) —
JSON- and pickle-friendly, validated by :func:`validate_span_tree`,
rendered to Chrome-trace/Perfetto JSON by
:func:`repro.obs.export.spans_to_chrome_trace`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

__all__ = [
    "SpanContext", "Span", "SpanTracer", "SpanCarrier",
    "DEFAULT_SPAN_CAPACITY", "finished_span", "validate_span_tree",
    "current_span_context",
]

#: default bound on finished spans a tracer retains (oldest drop first)
DEFAULT_SPAN_CAPACITY = 4096

#: active span context of the current thread/task (set by
#: :meth:`SpanTracer.span`; read by :mod:`repro.obs.logging` so JSON log
#: lines carry trace/span ids without explicit plumbing)
_CURRENT_SPAN: ContextVar["SpanContext | None"] = ContextVar(
    "repro_current_span", default=None)


def current_span_context() -> "SpanContext | None":
    """The innermost active :class:`SpanContext`, or None."""
    return _CURRENT_SPAN.get()


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagation triple: which trace, which span, whose child.

    Frozen, picklable and JSON-round-trippable — this is the only part
    of a span that crosses a process or transport boundary *before* the
    work happens; the timed :class:`Span` is created where the work
    runs.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def child(self) -> "SpanContext":
        """A fresh context for a child span of this one."""
        return SpanContext(self.trace_id, _new_span_id(), self.span_id)

    @classmethod
    def new_root(cls) -> "SpanContext":
        return cls(trace_id=_new_trace_id(), span_id=_new_span_id())


class Span:
    """One timed operation: context + clocks + attributes + status.

    Durations come from ``perf_counter_ns`` (monotonic); the start
    timestamp is ``time_ns`` (epoch) so spans from different processes
    on the same host line up on one timeline.
    """

    __slots__ = ("name", "context", "start_unix_ns", "attributes",
                 "status", "duration_ns", "_t0", "_tracer")

    def __init__(self, name: str, context: SpanContext,
                 tracer: "SpanTracer | None" = None,
                 attributes: dict[str, Any] | None = None) -> None:
        self.name = name
        self.context = context
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.status = "ok"
        self.start_unix_ns = time.time_ns()
        self.duration_ns: int | None = None  # None while still open
        self._t0 = time.perf_counter_ns()
        self._tracer = tracer

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    @property
    def ended(self) -> bool:
        return self.duration_ns is not None

    def end(self, *, status: str | None = None) -> None:
        """Close the span (idempotent) and hand it to its tracer."""
        if self.duration_ns is not None:
            return
        self.duration_ns = time.perf_counter_ns() - self._t0
        if status is not None:
            self.status = status
        if self._tracer is not None:
            self._tracer._finish(self)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.context.parent_id,
            "start_unix_ns": self.start_unix_ns,
            "duration_ns": self.duration_ns,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (f"{self.duration_ns / 1e6:.2f} ms"
                 if self.duration_ns is not None else "open")
        return f"<Span {self.name} {self.context.span_id} {state}>"


def finished_span(name: str, context: SpanContext, *,
                  start_unix_ns: int, duration_ns: int,
                  status: str = "ok",
                  attributes: dict[str, Any] | None = None
                  ) -> dict[str, Any]:
    """Fabricate a finished span record from externally measured times.

    Used where per-item clocks do not exist — e.g. the batched executor,
    which steps a whole replica batch in one lockstep loop and can only
    attribute the shared batch interval to each cell.
    """
    return {
        "name": name,
        "trace_id": context.trace_id,
        "span_id": context.span_id,
        "parent_id": context.parent_id,
        "start_unix_ns": start_unix_ns,
        "duration_ns": duration_ns,
        "status": status,
        "attributes": dict(attributes or {}),
    }


@dataclass
class SpanCarrier:
    """A result plus the finished spans recorded while computing it.

    The shape worker processes ship back through the executor: the
    engine unwraps the result (so caching, digests and progress see
    exactly what they always saw) and ingests the spans into the
    run-level tracer.
    """

    result: Any
    spans: list[dict[str, Any]]


class SpanTracer:
    """Thread-safe bounded buffer of finished spans + span factory.

    ``capacity`` bounds retained *finished* spans; when full the oldest
    are dropped and counted in :attr:`dropped` — a tracer can outlive
    arbitrarily many jobs without exhausting memory.
    """

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("span tracer capacity must be >= 1")
        self.capacity = capacity
        self._finished: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0  # finished spans ever seen (monotone)

    # -- span creation --------------------------------------------------------

    def start(self, name: str, *, parent: SpanContext | None = None,
              context: SpanContext | None = None,
              attributes: dict[str, Any] | None = None) -> Span:
        """Open a span; ``context`` pins pre-allocated ids (cross-process
        parentage), ``parent`` derives a child, neither starts a trace."""
        if context is None:
            context = (parent.child() if parent is not None
                       else SpanContext.new_root())
        return Span(name, context, tracer=self, attributes=attributes)

    @contextmanager
    def span(self, name: str, *, parent: SpanContext | None = None,
             context: SpanContext | None = None,
             attributes: dict[str, Any] | None = None) -> Iterator[Span]:
        """Context-managed :meth:`start`: ends on exit, flags errors,
        and publishes the active context for log correlation."""
        sp = self.start(name, parent=parent, context=context,
                        attributes=attributes)
        token = _CURRENT_SPAN.set(sp.context)
        try:
            yield sp
        except BaseException:
            sp.end(status="error")
            raise
        else:
            sp.end()
        finally:
            _CURRENT_SPAN.reset(token)

    # -- collection -----------------------------------------------------------

    def _finish(self, span: Span) -> None:
        with self._lock:
            self.recorded += 1
            self._finished.append(span.as_dict())

    def ingest(self, spans: Iterable[dict[str, Any]]) -> int:
        """Adopt finished span records from elsewhere (e.g. a worker
        process via :class:`SpanCarrier`); returns the count added."""
        n = 0
        with self._lock:
            for record in spans:
                self.recorded += 1
                self._finished.append(dict(record))
                n += 1
        return n

    @property
    def dropped(self) -> int:
        """Finished spans lost to the capacity bound."""
        with self._lock:
            return self.recorded - len(self._finished)

    def export(self) -> list[dict[str, Any]]:
        """Snapshot of retained finished spans, ordered by start time."""
        with self._lock:
            spans = list(self._finished)
        return sorted(spans, key=lambda s: (s["start_unix_ns"],
                                            s["span_id"]))


def validate_span_tree(spans: list[dict[str, Any]]) -> list[str]:
    """Well-formedness check for one trace's finished spans.

    Returns problem strings (empty = valid): exactly one root, unique
    span ids, a single trace id, no orphan parents, no negative or
    missing clocks.  Used by the trace tests and the ``service-smoke``
    CI step.
    """
    problems: list[str] = []
    if not spans:
        return ["trace has no spans"]
    ids: set[str] = set()
    traces: set[str] = set()
    roots: list[str] = []
    for i, s in enumerate(spans):
        for key in ("name", "trace_id", "span_id", "start_unix_ns",
                    "duration_ns"):
            if s.get(key) is None:
                problems.append(f"span {i}: missing {key!r}")
        sid = s.get("span_id")
        if sid in ids:
            problems.append(f"span {i}: duplicate span_id {sid!r}")
        if sid:
            ids.add(sid)
        if s.get("trace_id"):
            traces.add(s["trace_id"])
        if s.get("parent_id") is None:
            roots.append(s.get("name", "?"))
        dur = s.get("duration_ns")
        if isinstance(dur, int) and dur < 0:
            problems.append(f"span {i}: negative duration {dur}")
    if len(traces) > 1:
        problems.append(f"multiple trace ids in one tree: {sorted(traces)}")
    if len(roots) != 1:
        problems.append(f"expected exactly one root span, found "
                        f"{len(roots)}: {roots}")
    for i, s in enumerate(spans):
        parent = s.get("parent_id")
        if parent is not None and parent not in ids:
            problems.append(f"span {i} ({s.get('name')}): orphan parent "
                            f"{parent!r}")
    return problems
