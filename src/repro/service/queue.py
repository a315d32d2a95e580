"""Priority job queue for the experiment service.

A tiny asyncio-native priority queue with lazy cancellation: higher
``priority`` wins, FIFO within a priority level (submission sequence
breaks ties), and cancelling a queued entry marks it dead in place —
dead entries are skipped (and discarded) when popped, so cancellation
is O(1) and the heap never needs re-building.

The synchronous core (:meth:`put` / :meth:`try_get` / :meth:`cancel`)
is fully deterministic and directly testable — the adversarial
submit/cancel soak in ``tests/test_service_concurrency.py`` drives it
against a reference model; :meth:`get` adds the asyncio wait that the
service's worker loops block on.
"""

from __future__ import annotations

import asyncio
import heapq

__all__ = ["JobQueue"]


class JobQueue:
    """Priority-ordered queue of job ids with O(1) cancellation."""

    def __init__(self) -> None:
        #: heap of (-priority, seq, job_id): min-heap → highest priority
        #: first, then lowest sequence number (FIFO within a priority)
        self._heap: list[tuple[int, int, str]] = []
        self._queued: set[str] = set()
        self._seq = 0
        self._wakeup = asyncio.Event()

    # -- synchronous core ----------------------------------------------------

    def put(self, job_id: str, priority: int = 0) -> None:
        """Enqueue ``job_id``; re-queuing a queued id is an error."""
        if job_id in self._queued:
            raise ValueError(f"job {job_id!r} is already queued")
        heapq.heappush(self._heap, (-priority, self._seq, job_id))
        self._seq += 1
        self._queued.add(job_id)
        self._wakeup.set()

    def cancel(self, job_id: str) -> bool:
        """Mark a queued entry dead; True if it was actually queued."""
        if job_id not in self._queued:
            return False
        self._queued.discard(job_id)
        return True

    def try_get(self) -> str | None:
        """Pop the highest-priority live entry, or None when empty.

        Dead (cancelled) heap entries encountered on the way are
        discarded for good.
        """
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            if job_id in self._queued:
                self._queued.discard(job_id)
                return job_id
        return None

    def __len__(self) -> int:
        """Live (non-cancelled) queued entries."""
        return len(self._queued)

    # -- asyncio wait --------------------------------------------------------

    async def get(self) -> str:
        """Wait for and pop the highest-priority live entry."""
        while True:
            job_id = self.try_get()
            if job_id is not None:
                return job_id
            self._wakeup.clear()
            await self._wakeup.wait()
