"""Parallel experiment engine: pluggable executors behind one cache.

Reproducing any of the paper's figures means running dozens of
independent simulations (mechanisms x gated fractions x rates).  Each
one is a pure function of its parameters, so the engine splits the
problem in two layers:

* **Executors** (:class:`SerialExecutor`, :class:`PoolExecutor`,
  :class:`BatchedExecutor`) know *how* to compute a batch of resolved
  :class:`SweepTask`\\ s — in-process one by one, fanned over a
  ``concurrent.futures.ProcessPoolExecutor`` (worker count
  auto-detected, ``REPRO_JOBS`` overrides, per-task timeout + one
  in-process retry, serial fallback when the pool cannot be created),
  or as lockstep replica batches through
  :func:`repro.noc.batched.run_spec_batch`.  All three implement the
  same small protocol (:class:`Executor`), so schedulers — the sweep
  helpers, the benchmarks, and the experiment service
  (:mod:`repro.service`) — pick a strategy without caring about
  process pools, and a multi-host shard executor has a seam to slot
  into later.
* The **engine** (:class:`ParallelSweep`) wraps an executor with the
  shared policy: consult the content-addressed on-disk cache first
  (:mod:`repro.harness.cache`), hand only the misses to the executor,
  persist fresh results, and report progress through an optional
  callback.

Determinism: every task's spec carries an explicit seed, so results
are bit-identical across every executor and cache replay — the
determinism and executor-equivalence regression tests assert exactly
this.
"""

from __future__ import annotations

import concurrent.futures as cf
from concurrent.futures.process import BrokenProcessPool
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..gating.schedule import GatingSchedule
from ..spec import ExperimentSpec
from .cache import ResultCache, cache_enabled
from .runner import ExperimentResult, run_spec

#: signature: progress(done, total, task_or_item, result, from_cache)
ProgressFn = Callable[[int, int, Any, Any, bool], None]

#: signature: emit(index, result) — called exactly once per task, in
#: task-index order, as results become available
EmitFn = Callable[[int, Any], None]


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer REPRO_JOBS={env!r}",
                          RuntimeWarning, stacklevel=2)
    return os.cpu_count() or 1


def default_task_timeout() -> float:
    """Per-task timeout in seconds (``REPRO_TASK_TIMEOUT``, default 600)."""
    env = os.environ.get("REPRO_TASK_TIMEOUT")
    if env:
        try:
            return float(env)
        except ValueError:
            warnings.warn(f"ignoring non-numeric REPRO_TASK_TIMEOUT={env!r}",
                          RuntimeWarning, stacklevel=2)
    return 600.0


@dataclass
class SweepTask:
    """One engine work item: an :class:`~repro.spec.ExperimentSpec` plus
    what is not data — an optional live ``schedule`` object and the
    runtime attachments the engine stamps.

    The spec is the authority for validation, cache keys and execution.
    A task carrying a live ``schedule`` *object* is executed but never
    cached (arbitrary schedule objects are not content-hashed; use the
    spec's declarative schedule mapping to get cacheable scheduled
    runs).
    """

    spec: ExperimentSpec
    schedule: GatingSchedule | None = None
    #: distributed-trace context stamped by the engine (never user-set);
    #: excluded from equality and from the cache key — tracing a task
    #: must not change what it computes or where it is stored
    span_context: Any | None = field(default=None, compare=False,
                                     repr=False)
    #: checkpoint cadence/location stamped by the engine (or set
    #: directly); excluded from equality and the cache key — a
    #: checkpointed run computes the same result as an uninterrupted one
    checkpoint_every: int | None = field(default=None, compare=False,
                                         repr=False)
    checkpoint_dir: Any | None = field(default=None, compare=False,
                                       repr=False)
    #: zero-arg preemption poll, checked at checkpoint boundaries; only
    #: honored by in-process executors (a callable does not pickle into
    #: pool workers), so the engine stamps it selectively
    interrupt: Any | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_spec(cls, spec: ExperimentSpec) -> "SweepTask":
        """``SweepTask(spec)`` — the spelling ``bench/`` imports."""
        return cls(spec)

    def cache_key(self) -> dict[str, Any] | None:
        """The spec's cache key, or None when a live schedule object
        makes the task uncacheable."""
        if self.schedule is not None:
            return None
        return self.spec.cache_key()

    def run(self) -> ExperimentResult:
        """Execute the task in the current process.

        With a checkpoint cadence set, the run auto-resumes from an
        existing checkpoint for this spec (left behind by an interrupted
        run) and checkpoints periodically; ``run_spec`` removes the file
        on completion.
        """
        return run_spec(self.spec, schedule=self.schedule,
                        **self._checkpoint_kwargs())

    def _checkpoint_kwargs(self) -> dict[str, Any]:
        """``run_spec`` checkpoint keywords, with auto-resume from an
        existing checkpoint file ({} when checkpointing is off)."""
        if not self.checkpoint_every:
            return {}
        from .checkpoint import checkpoint_path
        path = checkpoint_path(self.checkpoint_dir, self.spec)
        return {"checkpoint_every": self.checkpoint_every,
                "checkpoint_dir": self.checkpoint_dir,
                "resume_from": path if path.exists() else None,
                "interrupt": self.interrupt}


def _execute_task(task: SweepTask) -> Any:
    """Module-level worker entry point (must be picklable).

    The untraced path is one attribute test (the hot-path contract);
    a task carrying a :class:`~repro.obs.spans.SpanContext` runs under
    a ``cell.run`` span opened *here* — in whatever process executes
    the task — with kernel phase timings attached, and returns a
    :class:`~repro.obs.spans.SpanCarrier` the engine unwraps.
    """
    if task.span_context is None:
        return task.run()
    return _run_traced(task)


def _run_traced(task: SweepTask) -> Any:
    from ..obs.profile import KernelProfiler
    from ..obs.spans import SpanCarrier, SpanTracer

    tracer = SpanTracer(capacity=64)
    prof = KernelProfiler()
    spec = task.spec
    with tracer.span("cell.run", context=task.span_context, attributes={
            "pid": os.getpid(),
            "cell.mechanism": spec.mechanism,
            "cell.pattern": spec.pattern,
            "cell.rate": spec.rate,
            "cell.gated_fraction": spec.gated_fraction,
            "cell.seed": spec.seed}) as sp:
        result = run_spec(spec, schedule=task.schedule, profiler=prof,
                          **task._checkpoint_kwargs())
        for phase, ns in prof.phase_ns().items():
            sp.set_attribute(f"kernel.{phase}_ns", ns)
        sp.set_attribute("kernel.cycles", prof.cycles)
        sp.set_attribute("kernel.step_ns", prof.step_ns)
    return SpanCarrier(result, tracer.export())


def _call(fn_and_item: tuple[Callable[[Any], Any], Any]) -> Any:
    fn, item = fn_and_item
    return fn(item)


def batch_group_key(task: SweepTask) -> tuple:
    """Batch-compatibility key: replicas must share a topology, and
    the config overrides are what determine it."""
    return tuple(sorted((k, repr(v))
                        for k, v in task.spec.overrides.items()))


# -- executors ----------------------------------------------------------------

@runtime_checkable
class Executor(Protocol):
    """Strategy for computing a batch of resolved :class:`SweepTask`\\ s.

    Executors are pure compute: no cache, no progress policy — that is
    the engine's job.  The contract:

    * :meth:`execute` calls ``emit(i, result)`` exactly once per task,
      in task-index order, as results become available (streaming lets
      the engine persist/report each result immediately, and lets a
      scheduler abort between tasks by raising from ``emit``).
    * :meth:`map` is the generic fan-out for units of work that are not
      sweep tasks (fault soaks, PARSEC benchmark cells).
    * ``mode`` describes how the *last* call actually ran (``serial`` /
      ``parallel`` / ``batched``) — a pool that fell back reports
      ``serial``.
    * :meth:`reset` clears any per-run bookkeeping; engines call it at
      the top of every run.
    """

    mode: str

    def reset(self) -> None: ...

    def execute(self, tasks: Sequence[SweepTask], emit: EmitFn) -> None: ...

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> list[Any]: ...


class SerialExecutor:
    """Run every task in-process, one at a time (no pool, no pickling)."""

    def __init__(self) -> None:
        self.mode = "serial"

    def reset(self) -> None:
        pass

    def execute(self, tasks: Sequence[SweepTask], emit: EmitFn) -> None:
        self.mode = "serial"
        for i, task in enumerate(tasks):
            emit(i, _execute_task(task))

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> list[Any]:
        self.mode = "serial"
        return [fn(it) for it in items]


class PoolExecutor:
    """Fan tasks over a process pool, falling back to serial execution.

    Parameters
    ----------
    max_workers:
        Process count; ``None`` auto-detects (``REPRO_JOBS`` override).
        ``1`` forces the in-process serial path.
    task_timeout:
        Seconds a pooled task may run before it is abandoned and retried
        serially (``REPRO_TASK_TIMEOUT`` sets the default).

    Failure policy (unchanged from the original engine): a task that
    fails or times out in a worker is retried once in-process before the
    error propagates; a broken pool (OOM-killed worker, ...) finishes
    every remaining task in-process; a pool that cannot be created at
    all degrades to the serial path with a warning.
    """

    def __init__(self, max_workers: int | None = None, *,
                 task_timeout: float | None = None) -> None:
        self.max_workers = (default_jobs() if max_workers is None
                            else max(1, int(max_workers)))
        self.task_timeout = (default_task_timeout() if task_timeout is None
                             else task_timeout)
        self.mode = "serial"

    def reset(self) -> None:
        pass

    def execute(self, tasks: Sequence[SweepTask], emit: EmitFn) -> None:
        self._fan_out(_execute_task, tasks, emit)

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> list[Any]:
        results: list[Any] = [None] * len(items)

        def emit(i: int, res: Any) -> None:
            results[i] = res

        self._fan_out(_call, [(fn, it) for it in items], emit)
        return results

    # -- internals -----------------------------------------------------------

    def _fan_out(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
                 emit: EmitFn) -> None:
        if min(self.max_workers, len(payloads)) > 1:
            if self._run_pool(fn, payloads, emit):
                self.mode = "parallel"
                return
        self.mode = "serial"
        for i, payload in enumerate(payloads):
            emit(i, fn(payload))

    def _run_pool(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
                  emit: EmitFn) -> bool:
        """Run ``fn`` over payloads in a process pool.

        Returns False when the pool could not be created or submission
        failed — both happen before any ``emit``, so the caller falls
        back to the serial path cleanly.  Individual task
        failures/timeouts are retried once in-process; a second failure
        propagates.
        """
        workers = min(self.max_workers, len(payloads))
        try:
            executor = cf.ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, ImportError,
                NotImplementedError) as exc:  # pragma: no cover - env-dep.
            warnings.warn(f"process pool unavailable ({exc}); "
                          f"running serially", RuntimeWarning, stacklevel=2)
            return False
        try:
            try:
                futures = [executor.submit(fn, p) for p in payloads]
            except Exception as exc:  # unpicklable payload, broken pool, ...
                warnings.warn(f"process pool submission failed ({exc}); "
                              f"running serially", RuntimeWarning,
                              stacklevel=2)
                return False
            broken = False
            for i, fut in enumerate(futures):
                if broken:
                    emit(i, self._retry(fn, payloads[i], None))
                    continue
                try:
                    res = fut.result(timeout=self.task_timeout)
                except BrokenProcessPool as exc:
                    # whole pool died (OOM-killed worker, ...): finish
                    # everything still pending in-process.
                    warnings.warn(f"process pool broke ({exc}); finishing "
                                  f"remaining tasks serially",
                                  RuntimeWarning, stacklevel=2)
                    broken = True
                    res = self._retry(fn, payloads[i], None)
                except (cf.TimeoutError, Exception) as exc:
                    fut.cancel()
                    res = self._retry(fn, payloads[i], exc)
                emit(i, res)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return True

    @staticmethod
    def _retry(fn: Callable[[Any], Any], payload: Any,
               exc: BaseException | None) -> Any:
        if exc is not None:
            warnings.warn(f"task failed in worker ({exc!r}); retrying "
                          f"in-process once", RuntimeWarning, stacklevel=3)
        return fn(payload)  # second failure propagates to the caller


class BatchedExecutor:
    """Step compatible tasks as in-process lockstep replica batches.

    Compatible tasks (same config overrides, hence same topology) are
    grouped into chunks of ``batch_size`` and each chunk is executed as
    one :func:`repro.noc.batched.run_spec_batch` invocation — one
    kernel loop stepping all replicas in lockstep.  Results are
    bit-identical to the solo paths (the kernel-equivalence and
    executor-equivalence tests assert digest equality).  Execution is
    in-process, so like the serial path there is no preemption.
    """

    def __init__(self, batch_size: int = 8) -> None:
        self.batch_size = max(1, int(batch_size))
        self.mode = "batched"
        #: batches executed during the last execute()
        self.last_batches = 0

    def reset(self) -> None:
        self.last_batches = 0

    def execute(self, tasks: Sequence[SweepTask], emit: EmitFn) -> None:
        from ..noc.batched import run_spec_batch

        self.mode = "batched"
        groups: dict[tuple, list[int]] = {}
        for i, task in enumerate(tasks):
            groups.setdefault(batch_group_key(task), []).append(i)
        for idxs in groups.values():
            for start in range(0, len(idxs), self.batch_size):
                chunk = idxs[start:start + self.batch_size]
                traced = any(tasks[i].span_context is not None
                             for i in chunk)
                if traced:
                    import time as _time
                    t_start = _time.time_ns()
                    p0 = _time.perf_counter_ns()
                specs = [tasks[i].spec for i in chunk]
                # checkpointing is batch-level: one snapshot file keyed
                # by the chunk's member digests, auto-resumed when the
                # same chunk re-runs after an interruption
                ck_every = next((tasks[i].checkpoint_every for i in chunk
                                 if tasks[i].checkpoint_every), None)
                resume = None
                ck_dir = None
                if ck_every:
                    from .checkpoint import batch_checkpoint_path
                    ck_dir = next((tasks[i].checkpoint_dir for i in chunk
                                   if tasks[i].checkpoint_dir is not None),
                                  None)
                    path = batch_checkpoint_path(ck_dir, specs)
                    if path.exists():
                        resume = path
                batch_results = run_spec_batch(
                    specs,
                    schedules=[tasks[i].schedule for i in chunk],
                    checkpoint_every=ck_every, checkpoint_dir=ck_dir,
                    resume_from=resume,
                    interrupt=next((tasks[i].interrupt for i in chunk
                                    if tasks[i].interrupt is not None),
                                   None))
                self.last_batches += 1
                if traced:
                    # replicas step in lockstep inside one kernel loop,
                    # so per-cell clocks do not exist: every traced cell
                    # gets the shared batch interval, flagged as such
                    from ..obs.spans import SpanCarrier, finished_span
                    dur = _time.perf_counter_ns() - p0
                    for i, res in zip(chunk, batch_results):
                        ctx = tasks[i].span_context
                        if ctx is None:
                            emit(i, res)
                            continue
                        emit(i, SpanCarrier(res, [finished_span(
                            "cell.run", ctx, start_unix_ns=t_start,
                            duration_ns=dur, attributes={
                                "pid": os.getpid(),
                                "executor": "batched",
                                "batch.size": len(chunk),
                                "batch.shared_interval": True,
                                "cell.seed": tasks[i].spec.seed})]))
                else:
                    for i, res in zip(chunk, batch_results):
                        emit(i, res)

    def map(self, fn: Callable[[Any], Any],
            items: Sequence[Any]) -> list[Any]:
        # generic items cannot be replica-batched; run them serially
        self.mode = "serial"
        return [fn(it) for it in items]


# -- engines ------------------------------------------------------------------

class ParallelSweep:
    """Engine that runs :class:`SweepTask` batches with cache + executor.

    Parameters
    ----------
    max_workers:
        Process count for the default :class:`PoolExecutor`; ``None``
        auto-detects (``REPRO_JOBS`` override).  ``1`` forces the
        in-process serial path (no pool, no pickling).  Ignored when
        ``executor`` is given.
    use_cache:
        Consult/populate the on-disk result cache.  ``REPRO_NO_CACHE=1``
        wins over ``True``.
    cache:
        A :class:`ResultCache`; default uses ``REPRO_CACHE_DIR`` /
        ``.repro_cache``.
    task_timeout:
        Seconds a pooled task may run before it is abandoned and retried
        serially (``REPRO_TASK_TIMEOUT`` sets the default).  The serial
        path cannot preempt a task, so no timeout applies there.
    progress:
        Optional callback ``(done, total, task, result, from_cache)``
        invoked once per finished task.  Raising from the callback
        aborts the run between tasks (the experiment service uses this
        for job cancellation); results already computed stay cached.
    executor:
        An :class:`Executor` instance to schedule onto; default is a
        :class:`PoolExecutor` built from ``max_workers``/``task_timeout``.
    span_tracer:
        Optional :class:`~repro.obs.spans.SpanTracer`.  When set, every
        run opens a ``sweep.run`` span (child of ``span_parent``, or a
        trace root), cache probes/writes and per-cell executions get
        child spans — including spans opened inside pool worker
        processes and shipped back — and all of them land in this
        tracer.  When ``None`` (the default) the only cost is the
        ``is not None`` guards.
    span_parent:
        Parent :class:`~repro.obs.spans.SpanContext` for the run span
        (the service passes its per-job root here).
    checkpoint_every / checkpoint_dir:
        When set, every computed (cache-missed) task checkpoints its
        simulation state every N cycles into ``checkpoint_dir`` and
        auto-resumes from a checkpoint an interrupted earlier run left
        behind; completed cells remove their checkpoint files.  Tasks
        carrying their own cadence keep it.
    interrupt:
        Zero-arg preemption poll, checked at every checkpoint boundary;
        returning true stops the run with
        :class:`~repro.harness.checkpoint.CheckpointInterrupt` after
        persisting the checkpoint.  Only honored by in-process
        executors (serial/batched) — a bound callable does not pickle
        into pool workers, where preemption stays at task granularity.
    """

    def __init__(self, max_workers: int | None = None, *,
                 use_cache: bool = True,
                 cache: ResultCache | None = None,
                 task_timeout: float | None = None,
                 progress: ProgressFn | None = None,
                 executor: Executor | None = None,
                 span_tracer: Any | None = None,
                 span_parent: Any | None = None,
                 checkpoint_every: int | None = None,
                 checkpoint_dir: Any | None = None,
                 interrupt: Callable[[], bool] | None = None) -> None:
        self.max_workers = (default_jobs() if max_workers is None
                            else max(1, int(max_workers)))
        self.use_cache = use_cache
        self.cache = cache if cache is not None else ResultCache()
        self.task_timeout = (default_task_timeout() if task_timeout is None
                             else task_timeout)
        self.executor: Executor = (
            executor if executor is not None
            else PoolExecutor(self.max_workers,
                              task_timeout=self.task_timeout))
        self.progress = progress
        self.span_tracer = span_tracer
        self.span_parent = span_parent
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.interrupt = interrupt
        #: how the last run() executed its computed tasks
        self.last_mode: str = "none"
        #: cache hits observed during the last run()
        self.last_cache_hits: int = 0

    # -- internals -----------------------------------------------------------

    def _caching(self) -> bool:
        return self.use_cache and cache_enabled()

    def _notify(self, done: int, total: int, task: Any, result: Any,
                from_cache: bool) -> None:
        if self.progress is not None:
            self.progress(done, total, task, result, from_cache)

    # -- public API ----------------------------------------------------------

    def run(self, tasks: Sequence[SweepTask]) -> list[ExperimentResult]:
        """Execute tasks (cache, then executor); order is preserved."""
        # private copies (the engine stamps runtime attachments on them)
        # with cycle defaults pinned in *this* process, so REPRO_FULL is
        # honored even when pool workers see a different environment
        resolved = [replace(t, spec=t.spec.resolved()) for t in tasks]
        total = len(resolved)
        results: list[ExperimentResult | None] = [None] * total
        caching = self._caching()
        keys: list[dict[str, Any] | None] = [None] * total
        self.executor.reset()

        tracer = self.span_tracer
        run_span = None
        parent_ctx = None
        carrier_cls: type | None = None
        if tracer is not None:
            from ..obs.spans import SpanCarrier as carrier_cls
            run_span = tracer.start("sweep.run", parent=self.span_parent,
                                    attributes={"cells": total})
            parent_ctx = run_span.context

        try:
            pending: list[int] = []
            done = 0
            for i, task in enumerate(resolved):
                key = task.cache_key() if caching else None
                keys[i] = key
                hit = (self.cache.get(key, tracer=tracer, parent=parent_ctx)
                       if key is not None else None)
                if hit is not None:
                    results[i] = hit
                    done += 1
                    self._notify(done, total, task, hit, True)
                else:
                    if tracer is not None:
                        task.span_context = parent_ctx.child()
                    if self.checkpoint_every and task.checkpoint_every is None:
                        task.checkpoint_every = self.checkpoint_every
                        task.checkpoint_dir = self.checkpoint_dir
                        if self.interrupt is not None and isinstance(
                                self.executor,
                                (SerialExecutor, BatchedExecutor)):
                            task.interrupt = self.interrupt
                    pending.append(i)
            self.last_cache_hits = total - len(pending)

            if pending:
                payloads = [resolved[i] for i in pending]
                state = {"done": done}

                def emit(j: int, res: Any) -> None:
                    i = pending[j]
                    if carrier_cls is not None and \
                            isinstance(res, carrier_cls):
                        tracer.ingest(res.spans)
                        res = res.result
                    results[i] = res
                    if caching and keys[i] is not None:
                        if tracer is not None:
                            with tracer.span("cache.write",
                                             parent=parent_ctx,
                                             attributes={"cell.index": i}):
                                self.cache.put(keys[i], res)
                        else:
                            self.cache.put(keys[i], res)
                    state["done"] += 1
                    self._notify(state["done"], total, resolved[i], res,
                                 False)

                self.executor.execute(payloads, emit)
                self.last_mode = self.executor.mode
            else:
                self.last_mode = "cached"
        except BaseException:
            if run_span is not None:
                run_span.end(status="error")
            raise
        finally:
            if run_span is not None and not run_span.ended:
                run_span.set_attribute("cache_hits", self.last_cache_hits)
                run_span.set_attribute("mode", self.last_mode)
                run_span.end()
        return results  # type: ignore[return-value]

    def map_callable(self, fn: Callable[[Any], Any],
                     items: Sequence[Any]) -> list[Any]:
        """Generic fan-out of ``fn`` over ``items`` (no result cache).

        ``fn`` must be picklable (module-level) for the pool path; the
        serial fallback works with any callable.  Used by benchmarks
        whose unit of work is not a synthetic-traffic task (e.g. the
        PARSEC full-system runs).
        """
        total = len(items)
        if total == 0:
            return []
        self.executor.reset()
        results = self.executor.map(fn, items)
        self.last_mode = self.executor.mode
        for i, res in enumerate(results):
            self._notify(i + 1, total, items[i], res, False)
        return results
