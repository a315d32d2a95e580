"""Asyncio experiment service: specs in over HTTP, results + SSE out.

The long-running half of the harness: a stdlib-only HTTP/1.1 server
(``asyncio.start_server`` + a small hand-rolled request parser — no new
dependencies) that turns a sweep into one POST.  Submitted
:class:`~repro.spec.JobEnvelope` bodies are validated up front (422 on
any :class:`~repro.spec.SpecError`), deduplicated against both the
shared ``.repro_cache/`` store *and* identical in-flight jobs, queued
by priority, executed through the pluggable
:class:`~repro.harness.parallel.Executor` interface, and observable
three ways: polling (``GET /jobs/<id>``), SSE streaming
(``GET /jobs/<id>/events``), and the service-wide ``/metrics``
endpoint built on :class:`repro.obs.MetricsRegistry`.

Endpoints
---------

==========  =======================  =========================================
``POST``    ``/jobs``                submit a spec or job envelope (JSON
                                     body; TOML with a ``...toml`` content
                                     type); ``?priority=N`` overrides the
                                     envelope priority
``GET``     ``/jobs``                all job snapshots, submission order
``GET``     ``/jobs/<id>``           one job snapshot (poll this)
``GET``     ``/jobs/<id>/result``    result payload of a finished job
``GET``     ``/jobs/<id>/events``    ordered, complete SSE stream (status,
                                     per-cell progress, live ``metrics``
                                     ticks), chunked; ends after the
                                     terminal ``end`` event
``GET``     ``/jobs/<id>/trace``     the job's distributed span trace
                                     (``?format=chrome`` for a
                                     Perfetto-loadable document)
``DELETE``  ``/jobs/<id>``           cancel (also ``POST /jobs/<id>/cancel``);
                                     ``?preempt=true`` checkpoints a running
                                     job and requeues it as ``preempted``
                                     instead of killing it
``GET``     ``/metrics``             plain-text ``name value`` exposition
                                     (``?format=json`` for full detail,
                                     ``?format=prometheus`` for Prometheus
                                     text exposition)
``GET``     ``/healthz``             liveness + queue depth
==========  =======================  =========================================

Connections are persistent (HTTP/1.1 keep-alive): one serves requests
in order until the client closes it, sends ``Connection: close``, or
gets an error response.  SSE streams are chunked, so a stream's end
does not end its connection.

Results are digest-identical to ``repro spec run`` on the same spec
file — the job payload carries the same per-cell
``result_to_dict`` encodings and the same ``stable_digest`` the CLI
prints, which is exactly what the service end-to-end tests and the
``service-smoke`` CI job assert.

Cache-hit semantics (the multi-tenant story): a job whose cells are
all already in the store finishes as ``cache_hit`` without touching
the queue; a job identical to one currently queued/running is parked
behind it (``dedup_of``) and served from the store when the primary
lands — N racing clients cost one execution.  Both show up on
``/metrics`` (``service.cells.cache_hits``,
``service.dedupe.inflight_hits``, ``service.jobs.cache_hits``).

Telemetry (PR 9): every job owns a distributed trace — a root ``job``
span opened at submission whose children decompose the job's
wall-clock exactly: ``submit.parse``, per-cell ``cache.probe``\\ s,
``queue.wait`` (enqueue→dequeue, also observed into the
``service.queue.wait_seconds`` histogram), ``sweep.run`` with
``cell.run`` spans opened *inside worker processes* (kernel phase
timings attached) and ``cache.write``\\ s.  ``GET /jobs/<id>/trace``
serves the tree; SSE streams add live per-job ``metrics`` events;
service log lines carry the trace/span ids when JSON logging is on
(``repro serve --log-json``); SIGTERM/SIGINT flush span buffers and a
metrics snapshot to ``--telemetry-dir``.

Durability (``repro serve --state-dir``, see ``docs/checkpoint.md``):
with a state directory, every job transition lands in an append-only
JSONL journal replayed at boot — terminal jobs stay queryable across
restarts, queued/preempted jobs re-enter the queue, and jobs a dead
process left running are requeued to resume from their cells'
periodic simulation checkpoints (written under
``<state-dir>/checkpoints/`` every ``checkpoint_every`` cycles).  The
same checkpoints back ``DELETE /jobs/<id>?preempt=true``: the running
job is checkpointed out of its worker, requeued as ``preempted``, and
finishes later with a result digest identical to an unpreempted run.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
import time
from pathlib import Path
from typing import Any, Callable
from urllib.parse import parse_qsl, unquote

from ..harness.cache import ResultCache, result_to_dict, stable_digest
from ..harness.checkpoint import CheckpointInterrupt
from ..harness.parallel import (BatchedExecutor, Executor, ParallelSweep,
                                PoolExecutor, SerialExecutor, SweepTask)
from ..obs.export import spans_to_chrome_trace
from ..obs.metrics import MetricsRegistry
from ..obs.spans import DEFAULT_SPAN_CAPACITY, SpanTracer
from ..spec import JobEnvelope, SpecError, SweepSpec
from .jobs import (CACHE_HIT, CANCELLED, DONE, FAILED, INTERRUPTED,
                   PREEMPTED, QUEUED, RUNNING, SUCCESS_STATES, Job,
                   JobCancelled, JobPreempted, JobStore)
from .journal import JobJournal
from .queue import JobQueue
from .sse import encode_event

__all__ = ["ExperimentService", "EXECUTOR_KINDS"]

log = logging.getLogger("repro.service")

#: named executor strategies ``--executor`` accepts
EXECUTOR_KINDS = ("pool", "serial", "batched")

#: checkpoint cadence (cycles) when ``state_dir`` is set and no explicit
#: ``checkpoint_every`` was given; 0 disables checkpointing entirely
DEFAULT_CHECKPOINT_EVERY = 1_000

#: job wall-clock histogram bucket upper edges, seconds
WALL_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0)

#: enqueue→dequeue latency histogram bucket upper edges, seconds
QUEUE_WAIT_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0)

#: # HELP strings for the Prometheus exposition
_METRIC_HELP = {
    "service.jobs.submitted": "Jobs accepted via POST /jobs",
    "service.jobs.completed": "Jobs that finished done",
    "service.jobs.failed": "Jobs that finished failed",
    "service.jobs.cancelled": "Jobs cancelled before or during execution",
    "service.jobs.cache_hits": "Jobs served entirely from the result store",
    "service.cells.executed": "Experiment cells computed by executors",
    "service.cells.cache_hits": "Experiment cells served from the store",
    "service.dedupe.inflight_hits": "Submissions parked behind an "
                                    "identical in-flight job",
    "service.jobs.preempted": "Preemptions: running jobs checkpointed "
                              "out of a worker and requeued",
    "service.jobs.recovered": "Jobs rebuilt from the journal at boot",
    "service.jobs.running": "Jobs currently executing",
    "service.queue.depth": "Jobs currently queued",
    "service.job.wall_seconds": "Job wall-clock from dequeue to terminal "
                                "state",
    "service.queue.wait_seconds": "Job latency from enqueue to dequeue",
}

_REASONS = {200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 422: "Unprocessable Entity",
            500: "Internal Server Error", 502: "Bad Gateway"}


class _HttpError(Exception):
    """Routed straight into a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive")

    def __init__(self, method: str, path: str, query: dict[str, str],
                 headers: dict[str, str], body: bytes,
                 keep_alive: bool) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class ExperimentService:
    """The asyncio experiment service (see module docstring).

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (``self.port``
        holds the real one after start).
    workers:
        Concurrent jobs; each runs in its own thread via
        ``asyncio.to_thread`` so the event loop stays responsive.
    executor:
        Scheduling strategy per job: one of :data:`EXECUTOR_KINDS`, an
        :class:`~repro.harness.parallel.Executor` *instance* (shared by
        every job — handy for tests), or a zero-arg factory returning
        one.
    batch_size:
        Replicas per batched-kernel invocation (``executor="batched"``).
    pool_workers:
        Process count per job for ``executor="pool"`` (default: auto).
    cache, use_cache:
        The shared :class:`ResultCache` (default honors
        ``REPRO_CACHE_DIR``) and whether to consult it.
    telemetry_dir:
        Directory that receives ``spans.jsonl`` + ``metrics.json`` on
        shutdown (``repro serve --telemetry-dir``); ``None`` disables
        the flush.
    span_capacity:
        Finished-span bound per job trace (oldest dropped first).
    state_dir:
        Directory for durable service state (``repro serve
        --state-dir``): the append-only job journal replayed at boot
        *and* the per-cell simulation checkpoints that make preemption
        and crash recovery resume mid-run.  ``None`` (default) keeps
        the service fully in-memory, as before.
    checkpoint_every:
        Simulation-checkpoint cadence in cycles for jobs run with a
        ``state_dir`` (default :data:`DEFAULT_CHECKPOINT_EVERY`); ``0``
        disables checkpointing, downgrading preemption to cell
        boundaries and crash recovery of running jobs to
        ``interrupted``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2,
                 executor: str | Executor | Callable[[], Executor] = "pool",
                 batch_size: int = 8,
                 pool_workers: int | None = None,
                 cache: ResultCache | None = None,
                 use_cache: bool = True,
                 max_body: int = 8 * 1024 * 1024,
                 telemetry_dir: str | None = None,
                 span_capacity: int = DEFAULT_SPAN_CAPACITY,
                 state_dir: str | None = None,
                 checkpoint_every: int | None = None) -> None:
        if isinstance(executor, str) and executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {executor!r}; expected one "
                             f"of {EXECUTOR_KINDS} or an Executor")
        self._host = host
        self._port = port
        self.port: int | None = None
        self.worker_count = max(1, int(workers))
        self._executor = executor
        self._batch_size = batch_size
        self._pool_workers = pool_workers
        self._cache = cache if cache is not None else ResultCache()
        self._use_cache = use_cache
        self._max_body = max_body
        self._telemetry_dir = telemetry_dir
        self._span_capacity = span_capacity
        self._journal: JobJournal | None = None
        self._checkpoint_dir: Path | None = None
        self._checkpoint_every = (DEFAULT_CHECKPOINT_EVERY
                                  if checkpoint_every is None
                                  else max(0, int(checkpoint_every)))
        if state_dir is not None:
            self._journal = JobJournal(state_dir)
            if self._checkpoint_every:
                self._checkpoint_dir = Path(state_dir) / "checkpoints"

        self.store = JobStore()
        self.queue = JobQueue()
        self.metrics = MetricsRegistry()
        self._running_jobs = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._worker_tasks: list[asyncio.Task] = []
        #: handler task of every open connection
        self._conns: set[asyncio.Task] = set()
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._start_error: BaseException | None = None

        # pre-create every instrument so /metrics shows explicit zeros
        for name in ("service.jobs.submitted", "service.jobs.completed",
                     "service.jobs.failed", "service.jobs.cancelled",
                     "service.jobs.cache_hits", "service.cells.executed",
                     "service.cells.cache_hits",
                     "service.dedupe.inflight_hits",
                     "service.jobs.preempted", "service.jobs.recovered"):
            self.metrics.counter(name)
        self.metrics.gauge("service.jobs.running")
        self.metrics.gauge("service.queue.depth")
        self.metrics.histogram("service.job.wall_seconds", WALL_BUCKETS)
        self.metrics.histogram("service.queue.wait_seconds",
                               QUEUE_WAIT_BUCKETS)

    # -- lifecycle -----------------------------------------------------------

    async def start_async(self) -> int:
        """Bind, start the worker loops, return the actual port."""
        self._loop = asyncio.get_running_loop()
        self._recover()
        self._server = await asyncio.start_server(
            self._handle_conn, self._host, self._port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_tasks = [asyncio.create_task(self._worker())
                              for _ in range(self.worker_count)]
        return self.port

    def _recover(self) -> None:
        """Replay the job journal into the store (boot, pre-serving).

        Terminal jobs come back queryable (result payloads rebuilt from
        the cache when every cell is still stored, digest-only
        otherwise).  Queued and preempted jobs re-enter the queue.
        Jobs a dead process left ``running`` are requeued when
        checkpointing is on — their cells resume from the last periodic
        checkpoint plus the cache — and finished as ``interrupted``
        when it is off.
        """
        if self._journal is None:
            return
        recovered = self._journal.replay(self.store)
        for job in recovered:
            self.metrics.counter("service.jobs.recovered").inc()
            if job.status == RUNNING:
                if self._checkpoint_dir is None:
                    job.error = ("service restarted mid-run with "
                                 "checkpointing disabled")
                    job.status = INTERRUPTED
                else:
                    job.status = QUEUED
            if job.terminal:
                if (job.status in SUCCESS_STATES
                        and (job.result is None
                             or "cells" not in job.result)):
                    results = self._probe_cache(job)
                    if results is not None:
                        job.result = self._result_payload(job.envelope,
                                                          results)
                job.finished = job.finished or time.time()
                self._publish(job, "end", {"status": job.status,
                                           "recovered": True})
                continue
            self._publish(job, "status", {"status": job.status,
                                          "recovered": True})
            self._enqueue_primary(job)
            log.info("job recovered", extra=self._log_ids(job, {
                "status": job.status}))
        if recovered:
            log.info("journal replayed",
                     extra={"jobs": len(recovered),
                            "path": str(self._journal.path)})

    def request_stop(self) -> None:
        """Ask a running service to shut down gracefully.

        Safe from signal handlers registered on the service's own loop
        (``loop.add_signal_handler`` runs them in the loop thread);
        cross-thread callers should go through :meth:`stop`.
        """
        if self._stop_event is not None:
            self._stop_event.set()

    async def _shutdown(self) -> None:
        for job in self.store.jobs():
            if job.status == RUNNING:
                job.cancel_requested.set()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            # From 3.12 on wait_closed() waits for open connections, an
            # idle kept-alive one included; cancelling a handler closes
            # its connection.  Connections accepted meanwhile loop again.
            while self._conns:
                conns = list(self._conns)
                for task in conns:
                    task.cancel()
                await asyncio.gather(*conns, return_exceptions=True)
            await self._server.wait_closed()
        paths = self.flush_telemetry()
        if paths:
            log.info("telemetry flushed", extra={"paths": paths})

    def flush_telemetry(self, directory: str | None = None
                        ) -> dict[str, str] | None:
        """Write span buffers + a metrics snapshot to disk.

        ``spans.jsonl`` holds every retained finished span of every job
        (one JSON object per line, grouped by trace since spans carry
        their trace id); ``metrics.json`` is the full
        :meth:`MetricsRegistry.as_dict` dump.  Returns the written
        paths, or None when no directory is configured.
        """
        d = directory or self._telemetry_dir
        if not d:
            return None
        root = Path(d)
        root.mkdir(parents=True, exist_ok=True)
        spans_path = root / "spans.jsonl"
        with open(spans_path, "w") as fh:
            for job in self.store.jobs():
                if job.span_tracer is None:
                    continue
                for span in job.span_tracer.export():
                    fh.write(json.dumps(span, separators=(",", ":")))
                    fh.write("\n")
        metrics_path = root / "metrics.json"
        self._gauges()
        with open(metrics_path, "w") as fh:
            json.dump(self.metrics.as_dict(), fh, indent=1)
        return {"spans": str(spans_path), "metrics": str(metrics_path)}

    async def run_async(self, *, announce: Callable[[str], None]
                        | None = None) -> None:
        """Start and serve until cancelled (the ``repro serve`` path)."""
        self._stop_event = asyncio.Event()
        await self.start_async()
        if announce is not None:
            announce(f"http://{self._host}:{self.port}")
        try:
            await self._stop_event.wait()
        finally:
            await self._shutdown()

    # threaded wrappers (tests and embedding) ---------------------------------

    def start(self) -> int:
        """Run the service on a daemon thread; returns the bound port."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main, args=(started,),
            name="repro-service", daemon=True)
        self._thread.start()
        if not started.wait(15.0):  # pragma: no cover - hang safety
            raise RuntimeError("service failed to start within 15s")
        if self._start_error is not None:
            raise RuntimeError("service failed to start") \
                from self._start_error
        assert self.port is not None
        return self.port

    def _thread_main(self, started: threading.Event) -> None:
        async def main() -> None:
            self._stop_event = asyncio.Event()
            try:
                await self.start_async()
            except BaseException as exc:
                self._start_error = exc
                started.set()
                return
            started.set()
            try:
                await self._stop_event.wait()
            finally:
                await self._shutdown()

        asyncio.run(main())

    def stop(self) -> None:
        """Stop a :meth:`start`-ed service and join its thread."""
        if self._thread is None:
            return
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and loop.is_running():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop_event.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    # -- executors ------------------------------------------------------------

    def _make_executor(self) -> Executor:
        ex = self._executor
        if isinstance(ex, str):
            if ex == "serial":
                return SerialExecutor()
            if ex == "batched":
                return BatchedExecutor(self._batch_size)
            return PoolExecutor(self._pool_workers)
        if isinstance(ex, Executor):
            return ex
        return ex()  # zero-arg factory

    # -- event publication ----------------------------------------------------

    def _publish(self, job: Job, event: str, data: dict[str, Any]) -> None:
        """Append to the job's event history and fan out (loop thread)."""
        entry = {"id": len(job.events), "event": event,
                 "data": dict(data, job=job.id)}
        job.events.append(entry)
        for q in list(job.subscribers):
            q.put_nowait(entry)

    def _publish_threadsafe(self, job: Job, event: str,
                            data: dict[str, Any]) -> None:
        loop = self._loop
        if loop is None:
            return
        with contextlib.suppress(RuntimeError):  # loop closing
            loop.call_soon_threadsafe(self._publish, job, event, data)

    def _gauges(self) -> None:
        self.metrics.gauge("service.queue.depth").set(float(len(self.queue)))
        self.metrics.gauge("service.jobs.running").set(
            float(self._running_jobs))

    @staticmethod
    def _log_ids(job: Job,
                 extra: dict[str, Any] | None = None) -> dict[str, Any]:
        """Log ``extra`` fields: job id + the job's trace/span ids."""
        out = dict(extra or {})
        out["job_id"] = job.id
        if job.root_span is not None:
            out["trace_id"] = job.root_span.context.trace_id
            out["span_id"] = job.root_span.context.span_id
        return out

    # -- job execution --------------------------------------------------------

    @staticmethod
    def _result_payload(envelope: JobEnvelope, results: list) -> dict:
        """Result body, digest-compatible with ``repro spec run``.

        Single cells digest ``result_to_dict(r)``; sweeps digest the
        ``{mechanism: [cells...]}`` series mapping — byte-identical to
        what the CLI prints, so HTTP and local runs compare directly.
        """
        spec = envelope.spec
        cells = [result_to_dict(r) for r in results]
        if isinstance(spec, SweepSpec):
            per_mech = len(cells) // len(spec.mechanisms)
            series = {m: cells[i * per_mech:(i + 1) * per_mech]
                      for i, m in enumerate(spec.mechanisms)}
            digest = stable_digest(series)
            kind = "sweep"
        else:
            digest = stable_digest(cells[0])
            kind = "experiment"
        return {"digest": digest, "kind": kind, "cells": cells}

    def _run_job(self, job: Job) -> tuple[dict, int, int]:
        """Execute ``job`` in the current (worker) thread.

        Returns ``(payload, executed_cells, cache_hit_cells)``.  The
        progress callback raises :class:`JobCancelled` between cells
        when cancellation was requested — cells already computed stay
        in the store (atomic writes), so a cancelled job never leaves
        a torn cache behind.
        """
        tasks = [SweepTask(c) for c in job.envelope.cells()]
        t_run = time.monotonic()

        def progress(done: int, total: int, task, result,
                     from_cache: bool) -> None:
            if job.cancel_requested.is_set():
                raise JobCancelled(job.id)
            if job.preempt_requested.is_set():
                raise JobPreempted(job.id)
            job.done_cells = done
            if from_cache:
                job.cache_hit_cells += 1
            cell = task.spec
            self._publish_threadsafe(job, "progress", {
                "done": done, "total": total,
                "from_cache": bool(from_cache),
                "cell": {"mechanism": cell.mechanism, "rate": cell.rate,
                         "gated_fraction": cell.gated_fraction,
                         "seed": cell.seed}})
            # live per-job telemetry rides the same SSE stream
            elapsed = time.monotonic() - t_run
            self._publish_threadsafe(job, "metrics", {
                "done": done, "total": total,
                "cache_hit_cells": job.cache_hit_cells,
                "elapsed_s": round(elapsed, 6),
                "cells_per_s": round(done / elapsed, 3) if elapsed else 0.0,
                "queue_wait_s": job.queue_wait_s})

        engine = ParallelSweep(
            use_cache=self._use_cache, cache=self._cache,
            progress=progress, executor=self._make_executor(),
            span_tracer=job.span_tracer,
            span_parent=(job.root_span.context
                         if job.root_span is not None else None),
            checkpoint_every=(self._checkpoint_every
                              if self._checkpoint_dir is not None else None),
            checkpoint_dir=self._checkpoint_dir,
            # mid-cell preemption: in-process executors poll this at
            # checkpoint boundaries (pool workers stay cell-granular)
            interrupt=job.preempt_requested.is_set)
        results = engine.run(tasks)
        payload = self._result_payload(job.envelope, results)
        executed = len(tasks) - engine.last_cache_hits
        return payload, executed, engine.last_cache_hits

    async def _worker(self) -> None:
        while True:
            job_id = await self.queue.get()
            self._gauges()
            job = self.store.get(job_id)
            if job is None or job.status not in (QUEUED, PREEMPTED):
                continue
            if job.cancel_requested.is_set():
                self._finish_job(job, CANCELLED)
                continue
            # a re-dequeued preempted job starts a fresh attempt
            job.preempt_requested.clear()
            if job.enqueued_at is not None:
                job.queue_wait_s = time.monotonic() - job.enqueued_at
                self.metrics.histogram(
                    "service.queue.wait_seconds",
                    QUEUE_WAIT_BUCKETS).observe(job.queue_wait_s)
                if job.queue_span is not None:
                    job.queue_span.set_attribute("queue.wait_seconds",
                                                 job.queue_wait_s)
            job.end_queue_span()
            job.status = RUNNING
            job.started = time.time()
            job.started_seq = self.store.next_run_seq()
            self._running_jobs += 1
            self._gauges()
            self._publish(job, "status", {"status": RUNNING})
            log.info("job started", extra=self._log_ids(job, {
                "queue_wait_s": job.queue_wait_s}))
            if self._journal is not None:
                self._journal.start(job)
            try:
                payload, executed, hits = await asyncio.to_thread(
                    self._run_job, job)
            except JobCancelled:
                self.metrics.counter("service.jobs.cancelled").inc()
                self._finish_job(job, CANCELLED)
            except (JobPreempted, CheckpointInterrupt):
                self._preempt_job(job)
            except asyncio.CancelledError:
                job.cancel_requested.set()
                self._finish_job(job, CANCELLED)
                raise
            except Exception as exc:
                job.error = f"{type(exc).__name__}: {exc}"
                self.metrics.counter("service.jobs.failed").inc()
                self._finish_job(job, FAILED)
            else:
                job.result = payload
                self.metrics.counter("service.cells.executed").inc(executed)
                self.metrics.counter("service.cells.cache_hits").inc(hits)
                self.metrics.counter("service.jobs.completed").inc()
                self.metrics.histogram(
                    "service.job.wall_seconds", WALL_BUCKETS).observe(
                        time.time() - job.started)
                if executed == 0:
                    self.metrics.counter("service.jobs.cache_hits").inc()
                self._finish_job(job, DONE if executed else CACHE_HIT)
            finally:
                self._running_jobs -= 1
                self._gauges()

    def _preempt_job(self, job: Job) -> None:
        """Non-terminal preemption: requeue the job behind its peers.

        Cells already computed sit in the result cache and the cell in
        flight (under an in-process executor) left a checkpoint, so the
        next attempt resumes rather than recomputes; the job keeps its
        dedupe-primary role and its followers.
        """
        job.preempt_requested.clear()
        job.status = PREEMPTED
        job.preemptions += 1
        self.metrics.counter("service.jobs.preempted").inc()
        if self._journal is not None:
            self._journal.preempt(job)
        self._publish(job, "status", {"status": PREEMPTED,
                                      "done": job.done_cells,
                                      "total": job.total_cells})
        log.info("job preempted", extra=self._log_ids(job, {
            "done": job.done_cells, "preemptions": job.preemptions}))
        job.enqueued_at = time.monotonic()
        self.queue.put(job.id, job.priority)
        self._gauges()

    def _finish_job(self, job: Job, status: str) -> None:
        """Terminal transition: bookkeeping, SSE end event, followers."""
        job.status = status
        job.finished = time.time()
        if self._journal is not None:
            self._journal.finish(job)
        key = job.envelope.dedupe_key()
        if self.store.inflight.get(key) == job.id:
            del self.store.inflight[key]
        data: dict[str, Any] = {"status": status,
                                "done": job.done_cells,
                                "total": job.total_cells}
        if job.result is not None:
            data["digest"] = job.result["digest"]
        if job.error is not None:
            data["error"] = job.error
        job.end_queue_span()  # covers cancel-while-queued/parked paths
        if job.root_span is not None and not job.root_span.ended:
            job.root_span.set_attribute("job.status", status)
            job.root_span.set_attribute("job.cells", job.total_cells)
            job.root_span.set_attribute("job.cache_hit_cells",
                                        job.cache_hit_cells)
            if job.result is not None:
                job.root_span.set_attribute("job.digest",
                                            job.result["digest"])
            job.root_span.end(
                status="ok" if status in SUCCESS_STATES else "error")
        log.info("job finished", extra=self._log_ids(job, {
            "status": status, "done": job.done_cells,
            "total": job.total_cells, "error": job.error}))
        self._publish(job, "end", data)

        followers = [self.store.get(fid) for fid in job.followers]
        job.followers = []
        live = [f for f in followers
                if f is not None and f.status == QUEUED
                and not f.cancel_requested.is_set()]
        if not live:
            self._gauges()
            return
        if status in SUCCESS_STATES:
            # every cell of the primary is now in the store; serve the
            # followers from it (each counts as a full cache hit)
            for f in live:
                if not self._try_serve_from_cache(f):
                    self._enqueue_primary(f)  # store bypassed/disabled
        else:
            # primary failed or was cancelled: promote the first live
            # follower to primary, keep the rest parked behind it
            new_primary, rest = live[0], live[1:]
            new_primary.dedup_of = None
            self._enqueue_primary(new_primary)
            for f in rest:
                f.dedup_of = new_primary.id
                new_primary.followers.append(f.id)
        self._gauges()

    # -- dedupe + cache probing -----------------------------------------------

    def _probe_cache(self, job: Job) -> list | None:
        """All cached results for the job's cells, or None on any miss."""
        if not self._use_cache:
            return None
        tracer = job.span_tracer
        parent = job.root_span.context if job.root_span is not None else None
        results = []
        for cell in job.envelope.cells():
            hit = self._cache.get(cell.cache_key(), tracer=tracer,
                                  parent=parent)
            if hit is None:
                return None
            results.append(hit)
        return results

    def _try_serve_from_cache(self, job: Job) -> bool:
        """Finish ``job`` as a cache hit when every cell is stored."""
        results = self._probe_cache(job)
        if results is None:
            return False
        job.result = self._result_payload(job.envelope, results)
        job.done_cells = job.total_cells
        job.cache_hit_cells = job.total_cells
        self.metrics.counter("service.jobs.cache_hits").inc()
        self.metrics.counter("service.cells.cache_hits").inc(
            job.total_cells)
        self._finish_job(job, CACHE_HIT)
        return True

    def _enqueue_primary(self, job: Job) -> None:
        job.end_queue_span()  # a promoted follower leaves dedupe.parked
        if job.span_tracer is not None and job.root_span is not None:
            job.queue_span = job.span_tracer.start(
                "queue.wait", parent=job.root_span.context,
                attributes={"queue.priority": job.priority})
        job.enqueued_at = time.monotonic()
        self.store.inflight[job.envelope.dedupe_key()] = job.id
        self.queue.put(job.id, job.priority)
        self._gauges()

    # -- request handlers -----------------------------------------------------

    def _submit(self, req: _Request) -> tuple[int, dict]:
        ctype = req.headers.get("content-type", "")
        tracer = SpanTracer(capacity=self._span_capacity)
        root = tracer.start("job", attributes={"http.method": req.method,
                                               "http.path": req.path})
        try:
            text = req.body.decode()
        except UnicodeDecodeError as exc:
            root.end(status="error")
            raise _HttpError(400, f"body is not valid UTF-8: {exc}") \
                from None
        try:
            with tracer.span("submit.parse", parent=root.context,
                             attributes={"bytes": len(req.body)}):
                envelope = JobEnvelope.from_payload(text,
                                                    toml="toml" in ctype)
                if "priority" in req.query:
                    try:
                        priority = int(req.query["priority"])
                    except ValueError:
                        raise SpecError(
                            f"priority query parameter must be an integer, "
                            f"got {req.query['priority']!r}") from None
                    envelope = JobEnvelope(spec=envelope.spec,
                                           priority=priority,
                                           tags=envelope.tags)
        except SpecError as exc:
            # no job exists for a 422, so its trace dies with it
            root.end(status="error")
            raise _HttpError(422, str(exc)) from None
        job = self.store.new_job(envelope)
        job.span_tracer = tracer
        job.root_span = root
        root.set_attribute("job.id", job.id)
        if self._journal is not None:
            self._journal.submit(job)
        self.metrics.counter("service.jobs.submitted").inc()
        self._publish(job, "status", {"status": QUEUED,
                                      "total": job.total_cells})
        log.info("job submitted", extra=self._log_ids(job, {
            "cells": job.total_cells, "priority": job.priority}))
        if self._try_serve_from_cache(job):
            return 201, job.snapshot()
        key = envelope.dedupe_key()
        primary = self.store.get(self.store.inflight.get(key, ""))
        if primary is not None and primary.status in (QUEUED, RUNNING):
            job.dedup_of = primary.id
            primary.followers.append(job.id)
            self.metrics.counter("service.dedupe.inflight_hits").inc()
            # parked time is queue time: one span from park to promotion
            # or store-serve, ended by _finish_job/_enqueue_primary
            job.queue_span = tracer.start(
                "dedupe.parked", parent=root.context,
                attributes={"dedup_of": primary.id})
            log.info("job deduplicated", extra=self._log_ids(job, {
                "dedup_of": primary.id}))
        else:
            self._enqueue_primary(job)
        return 201, job.snapshot()

    def _cancel(self, job: Job, *, preempt: bool = False) -> tuple[int, dict]:
        if job.terminal:
            return 409, {"error": f"job {job.id} is already {job.status}"}
        if preempt:
            if job.status != RUNNING:
                return 409, {"error": f"job {job.id} is {job.status}; "
                                      f"only running jobs can be preempted"}
            # flag it; the worker observes at the next cell boundary, or
            # mid-cell at the next checkpoint under in-process executors
            job.preempt_requested.set()
            return 202, dict(job.snapshot(), preempting=True)
        if job.status in (QUEUED, PREEMPTED):
            job.cancel_requested.set()
            self.queue.cancel(job.id)
            if job.dedup_of is not None:
                primary = self.store.get(job.dedup_of)
                if primary is not None and job.id in primary.followers:
                    primary.followers.remove(job.id)
            self.metrics.counter("service.jobs.cancelled").inc()
            self._finish_job(job, CANCELLED)
            return 200, job.snapshot()
        # running: flag it; the worker observes between cells
        job.cancel_requested.set()
        return 202, dict(job.snapshot(), cancelling=True)

    def _job_result(self, job: Job) -> tuple[int, dict]:
        if job.status in SUCCESS_STATES:
            if job.result is None or "cells" not in job.result:
                # journal-replayed success whose cells have left the
                # cache: the digest (when recorded) is all that remains
                return 409, {"error": f"result for job {job.id} is no "
                                      f"longer available after restart",
                             "digest": (job.result or {}).get("digest")}
            return 200, dict(job.result, id=job.id, status=job.status)
        if job.terminal:
            return 409, {"error": f"job {job.id} finished as "
                                  f"{job.status}", "detail": job.error}
        return 409, {"error": f"job {job.id} is still {job.status}"}

    def _metrics_body(self, fmt: str | None) -> tuple[bytes, str]:
        self._gauges()
        if fmt == "json":
            return (json.dumps(self.metrics.as_dict(), indent=2).encode(),
                    "application/json")
        if fmt == "prometheus":
            return (self.metrics.prometheus_text(_METRIC_HELP).encode(),
                    "text/plain; version=0.0.4; charset=utf-8")
        lines = [f"{name} {value}"
                 for name, value in
                 sorted(self.metrics.scalar_snapshot().items())]
        return ("\n".join(lines) + "\n").encode(), "text/plain"

    def _trace_payload(self, job: Job, fmt: str | None) -> dict:
        """The ``GET /jobs/<id>/trace`` body (span list or Chrome doc)."""
        tracer = job.span_tracer
        spans = tracer.export() if tracer is not None else []
        if fmt == "chrome":
            return spans_to_chrome_trace(spans)
        trace_id = (job.root_span.context.trace_id
                    if job.root_span is not None else None)
        return {"job": job.id, "trace_id": trace_id,
                "complete": job.terminal,
                "dropped": tracer.dropped if tracer is not None else 0,
                "span_count": len(spans), "spans": spans}

    # -- HTTP plumbing --------------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader) \
            -> _Request | None:
        """One request off the connection, or None at a clean EOF.

        Anything that leaves the body's extent unknown raises
        :class:`_HttpError`: on a persistent connection a mis-framed body
        would be read as the next request.
        """
        try:
            line = await reader.readline()
            if not line:
                return None
            method, target, _version = line.decode().split(None, 2)
            headers: dict[str, str] = {}
            while True:
                hline = await reader.readline()
                if hline in (b"\r\n", b"\n", b""):
                    break
                name, _, value = hline.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            # ValueError covers overlong lines, UnicodeDecodeError and a
            # request line without three parts
            raise _HttpError(400, f"malformed request head: {exc}") from None
        if "transfer-encoding" in headers:
            raise _HttpError(501, "Transfer-Encoding request bodies are "
                                  "not supported; send Content-Length")
        raw_length = headers.get("content-length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _HttpError(400, f"bad Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > self._max_body:
            raise _HttpError(413, f"body of {length} bytes exceeds the "
                                  f"{self._max_body} byte limit")
        body = await reader.readexactly(length) if length else b""
        path, _, qs = target.partition("?")
        query = {k: v for k, v in parse_qsl(qs)}
        return _Request(method.upper(), unquote(path), query, headers, body,
                        headers.get("connection", "").lower() != "close")

    @staticmethod
    def _response(status: int, body: bytes, content_type: str,
                  keep_alive: bool) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        return head.encode() + body

    @classmethod
    def _json_response(cls, status: int, obj: Any,
                       keep_alive: bool) -> bytes:
        body = (json.dumps(obj, indent=2) + "\n").encode()
        return cls._response(status, body, "application/json", keep_alive)

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """Serve requests in order until EOF, ``Connection: close`` or
        an error response."""
        task = asyncio.current_task()
        self._conns.add(task)
        try:
            while True:
                req = await self._read_request(reader)
                if req is None:
                    return
                await self._dispatch(req, reader, writer)
                if not req.keep_alive:
                    return
        except _HttpError as exc:
            with contextlib.suppress(ConnectionError):
                writer.write(self._json_response(
                    exc.status, {"error": exc.message}, keep_alive=False))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away mid-request
        except asyncio.CancelledError:
            # Only _shutdown cancels a handler, and it awaits this task.
            # Ending normally keeps 3.11's StreamReaderProtocol from
            # logging the cancelled task as an error.
            pass
        except Exception as exc:  # never let one connection kill us
            with contextlib.suppress(Exception):
                writer.write(self._json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"},
                    keep_alive=False))
                await writer.drain()
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()
            self._conns.discard(task)

    async def _dispatch(self, req: _Request, reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        segs = [s for s in req.path.split("/") if s]

        async def send_json(status: int, obj: Any) -> None:
            writer.write(self._json_response(status, obj, req.keep_alive))
            await writer.drain()

        if not segs:
            await send_json(200, {
                "service": "repro-experiment-service",
                "endpoints": ["/jobs", "/jobs/<id>", "/jobs/<id>/result",
                              "/jobs/<id>/events", "/jobs/<id>/trace",
                              "/metrics", "/healthz"]})
            return
        if segs == ["healthz"]:
            if req.method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            await send_json(200, {"status": "ok", "jobs": len(self.store),
                                  "queued": len(self.queue),
                                  "running": self._running_jobs})
            return
        if segs == ["metrics"]:
            if req.method != "GET":
                raise _HttpError(405, "metrics is GET-only")
            body, ctype = self._metrics_body(req.query.get("format"))
            writer.write(self._response(200, body, ctype, req.keep_alive))
            await writer.drain()
            return
        if segs[0] != "jobs":
            raise _HttpError(404, f"no such endpoint: {req.path}")

        if len(segs) == 1:
            if req.method == "POST":
                status, obj = self._submit(req)
                await send_json(status, obj)
            elif req.method == "GET":
                await send_json(200, {"jobs": [j.snapshot()
                                               for j in self.store.jobs()]})
            else:
                raise _HttpError(405, f"{req.method} not allowed on /jobs")
            return

        job = self.store.get(segs[1])
        if job is None:
            raise _HttpError(404, f"no such job: {segs[1]}")
        if len(segs) == 2:
            if req.method == "GET":
                await send_json(200, job.snapshot())
            elif req.method == "DELETE":
                status, obj = self._cancel(
                    job, preempt=req.query.get("preempt", "").lower()
                    in ("true", "1"))
                await send_json(status, obj)
            else:
                raise _HttpError(405,
                                 f"{req.method} not allowed on /jobs/<id>")
            return
        if len(segs) == 3 and segs[2] == "cancel" and req.method == "POST":
            status, obj = self._cancel(job)
            await send_json(status, obj)
            return
        if len(segs) == 3 and segs[2] == "result" and req.method == "GET":
            status, obj = self._job_result(job)
            await send_json(status, obj)
            return
        if len(segs) == 3 and segs[2] == "events" and req.method == "GET":
            await self._stream_events(job, req, reader, writer)
            return
        if len(segs) == 3 and segs[2] == "trace" and req.method == "GET":
            await send_json(200, self._trace_payload(
                job, req.query.get("format")))
            return
        raise _HttpError(404, f"no such endpoint: {req.path}")

    async def _stream_events(self, job: Job, req: _Request,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Replay the job's full event history, then go live until the
        terminal ``end`` event — ordered and complete by construction.

        One chunk per event; the zero chunk after ``end`` ends the
        response but not the connection.  While live, one watcher reads
        the connection: at EOF (the client left) the stream stops at
        once; bytes sent before the end are never parsed as a request,
        so the connection closes after the stream (``req.keep_alive``).
        """
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Transfer-Encoding: chunked\r\n"
                f"Connection: {'keep-alive' if req.keep_alive else 'close'}"
                "\r\n\r\n")
        writer.write(head.encode())

        def send(entry: dict) -> bool:
            data = encode_event(entry["id"], entry["event"], entry["data"])
            writer.write(b"%x\r\n%s\r\n" % (len(data), data))
            return entry["event"] == "end"

        async def watch() -> None:
            try:
                while await reader.read(4096):
                    req.keep_alive = False  # discarded, never parsed
            except OSError:  # a reset or timed-out connection: gone too
                pass
            q.put_nowait(None)  # EOF: wake the parked stream

        q: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(q)
        backlog = list(job.events)  # no await since subscribe: atomic
        watcher = None
        try:
            ended = False
            for entry in backlog:
                ended = send(entry) or ended
            await writer.drain()
            if not ended:
                watcher = asyncio.ensure_future(watch())
            while not ended:
                entry = await q.get()
                if entry is None:
                    req.keep_alive = False
                    return
                ended = send(entry)
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            if q in job.subscribers:
                job.subscribers.remove(q)
            if watcher is not None:
                # a cancelled read consumes nothing, and awaiting the
                # cancellation frees the reader for the next request
                watcher.cancel()
                await asyncio.wait((watcher,))
