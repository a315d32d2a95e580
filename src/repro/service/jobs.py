"""Job model and in-memory store for the experiment service.

A :class:`Job` wraps one validated :class:`~repro.spec.JobEnvelope`
with its lifecycle state.  The state machine::

    queued ──> running ──> done
       │        │ ↑  └───> failed
       │        │ │ └────> cancelled
       │        └─│──────> preempted ──> cancelled
       │          └───────────┘
       ├─────────────────> cancelled
       ├─────────────────> interrupted  (service restarted mid-run with
       │                                 no way to resume the job)
       └─────────────────> cache_hit    (all cells already in the store,
                                         or deduped behind an identical
                                         in-flight job that completed)

``cache_hit`` is a first-class terminal status, not a flavor of
``done``: it means the service recomputed *nothing* for this job, which
is exactly the multi-tenant signal the ``/metrics`` endpoint counts.
``preempted`` is *non*-terminal: the job was checkpointed out of its
worker (``DELETE /jobs/<id>?preempt=true``) and sits in the queue
again; when re-dequeued it resumes from its cells' checkpoints and the
result cache.  ``interrupted`` is the terminal cousin stamped at boot
replay on jobs a dead service left running with resumption disabled.

Jobs also carry their own SSE event history (``events``): every status
change and per-cell progress tick is appended with a monotonically
increasing ``id``, so a subscriber that connects late replays the full
ordered stream before going live — streams are complete by
construction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..spec import JobEnvelope

__all__ = ["Job", "JobStore", "JobCancelled", "JobPreempted", "QUEUED",
           "RUNNING", "PREEMPTED", "DONE", "FAILED", "CANCELLED",
           "CACHE_HIT", "INTERRUPTED", "TERMINAL_STATES"]

QUEUED = "queued"
RUNNING = "running"
PREEMPTED = "preempted"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
CACHE_HIT = "cache_hit"
INTERRUPTED = "interrupted"

#: states a job never leaves
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, CACHE_HIT,
                             INTERRUPTED})

#: terminal states that carry a result payload
SUCCESS_STATES = frozenset({DONE, CACHE_HIT})


class JobCancelled(Exception):
    """Raised inside a worker when its job's cancel flag is observed."""


class JobPreempted(Exception):
    """Raised inside a worker when its job's preempt flag is observed
    at a cell boundary (mid-cell preemption surfaces as
    :class:`~repro.harness.checkpoint.CheckpointInterrupt` instead)."""


@dataclass
class Job:
    """One submitted job and all of its lifecycle state."""

    id: str
    envelope: JobEnvelope
    seq: int
    status: str = QUEUED
    total_cells: int = 0
    done_cells: int = 0
    #: cells served from the shared result store instead of recomputed
    cache_hit_cells: int = 0
    #: job id this submission was deduplicated behind (None = primary)
    dedup_of: str | None = None
    #: follower job ids deduplicated behind this one
    followers: list[str] = field(default_factory=list)
    #: ``envelope.dedupe_key()``, computed once the job misses the
    #: store (a store hit never needs it)
    dedupe_key: str | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    #: global order in which jobs entered RUNNING (None = never ran)
    started_seq: int | None = None
    #: set by the cancellation endpoint; observed by the worker thread
    #: between cells
    cancel_requested: threading.Event = field(default_factory=threading.Event)
    #: set by ``DELETE ?preempt=true``; observed at cell boundaries and
    #: (for in-process executors) at checkpoint boundaries mid-cell
    preempt_requested: threading.Event = field(
        default_factory=threading.Event)
    #: times this job was checkpointed out of a worker and requeued
    preemptions: int = 0
    #: ordered SSE history: {"id": n, "event": kind, "data": {...}}
    events: list[dict[str, Any]] = field(default_factory=list)
    #: live SSE subscribers (asyncio.Queue instances)
    subscribers: list[Any] = field(default_factory=list)
    #: per-job distributed trace state (repro.obs.spans.SpanTracer /
    #: Span); owned by the service, exposed via GET /jobs/<id>/trace
    span_tracer: Any = None
    root_span: Any = None
    #: open queue.wait (or dedupe.parked) span, ended at dequeue
    queue_span: Any = None
    #: monotonic clock at enqueue; the queue-wait histogram observes
    #: (dequeue - this)
    enqueued_at: float | None = None
    queue_wait_s: float | None = None

    def end_queue_span(self) -> None:
        """Close the open queue-phase span, if any (idempotent)."""
        if self.queue_span is not None:
            self.queue_span.end()
            self.queue_span = None

    @property
    def priority(self) -> int:
        return self.envelope.priority

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def snapshot(self) -> dict[str, Any]:
        """Public JSON view of the job (the ``GET /jobs/<id>`` body)."""
        out: dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "priority": self.priority,
            "tags": dict(self.envelope.tags),
            "total_cells": self.total_cells,
            "done_cells": self.done_cells,
            "cache_hit_cells": self.cache_hit_cells,
            "dedup_of": self.dedup_of,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "started_seq": self.started_seq,
            "preemptions": self.preemptions,
            "error": self.error,
        }
        if self.result is not None:
            out["digest"] = self.result.get("digest")
        if self.root_span is not None:
            out["trace_id"] = self.root_span.context.trace_id
        if self.queue_wait_s is not None:
            out["queue_wait_s"] = self.queue_wait_s
        return out


class JobStore:
    """In-memory registry of jobs plus the in-flight dedupe index."""

    def __init__(self) -> None:
        self._jobs: dict[str, Job] = {}
        self._seq = 0
        self._run_seq = 0
        #: dedupe_key -> primary job id currently queued/running
        self.inflight: dict[str, str] = {}

    def new_job(self, envelope: JobEnvelope) -> Job:
        self._seq += 1
        job = Job(id=f"j{self._seq:06d}", envelope=envelope, seq=self._seq,
                  total_cells=len(envelope.cells()))
        self._jobs[job.id] = job
        return job

    def restore_job(self, job_id: str, envelope: JobEnvelope) -> Job:
        """Recreate a journaled job under its original id (boot replay).

        Advances the id sequence past the restored id so jobs submitted
        after recovery never collide with journaled ones.
        """
        seq = int(job_id.lstrip("j"))
        self._seq = max(self._seq, seq)
        job = Job(id=job_id, envelope=envelope, seq=seq,
                  total_cells=len(envelope.cells()))
        self._jobs[job_id] = job
        return job

    def next_run_seq(self) -> int:
        """Monotone counter stamped on jobs as they enter RUNNING."""
        self._run_seq += 1
        return self._run_seq

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All jobs in submission order."""
        return sorted(self._jobs.values(), key=lambda j: j.seq)

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs
