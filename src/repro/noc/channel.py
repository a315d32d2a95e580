"""Channels: pipelined flit links and credit return wires.

Channels are simple time-stamped queues. A sender places an item with an
explicit arrival cycle; the receiver drains all items whose arrival cycle
has been reached. This models fixed-latency pipelined wires with one
flit/cycle bandwidth (enforced by the sender, which can issue at most one
switch traversal per output port per cycle).

Event-wheel integration (the activity-driven kernel)
----------------------------------------------------

Under ``REPRO_KERNEL=active`` the network binds every wired channel to a
*timing wheel* — a ``dict[arrival_cycle, list[channel]]`` owned by the
:class:`~repro.noc.network.Network`.  Every send files the channel once
in the bucket of **that item's** arrival cycle, so the kernel only
visits channels with an item due at ``now`` instead of scanning every
channel of every router each cycle, and a bucket lists its channels in
send order.

Wheel contract (kept deliberately loose so standalone channels and
direct test manipulation keep working):

* Every queued item has an entry at its arrival cycle: per channel and
  cycle, entries >= queued items (``derived_state_violations`` recounts
  it).
* The kernel pops exactly one due item per entry.  An entry whose
  channel turns out to be empty or whose head is not due yet (left
  behind by :meth:`clear` or by a link outage that re-filed its items
  later) is stale and simply dropped — never an
  error.
* All simulator send sites use strictly future arrivals, so a bucket for
  a past cycle can never be left behind by normal operation.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generic, Iterator, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    from .router import Router

T = TypeVar("T")


class DelayChannel(Generic[T]):
    """A fixed-latency, order-preserving delay line."""

    __slots__ = ("latency", "_q", "wheel", "sink", "sink_dir", "sent",
                 "owner")

    def __init__(self, latency: int = 1) -> None:
        if latency < 1:
            raise ValueError("channel latency must be >= 1")
        self.latency = latency
        self._q: deque[tuple[int, T]] = deque()
        #: monotone count of items ever sent — the observability sampler
        #: derives per-link utilization from deltas of this counter
        self.sent = 0
        #: timing wheel this channel registers arrivals into (None when
        #: unbound: standalone use or the dense reference kernel)
        self.wheel: dict[int, list["DelayChannel[T]"]] | None = None
        #: receiving router / port, bound by the network at wiring time
        self.sink: "Router | None" = None
        self.sink_dir = None
        #: replica index within a :class:`~repro.noc.batched.ReplicaBatch`
        #: (0 outside of batched execution); the batch kernel's shared
        #: wheels use it to drop registrations of retired replicas
        self.owner = 0

    def bind(self, wheel: dict[int, list["DelayChannel[T]"]] | None,
             sink: "Router", sink_dir) -> None:
        """Attach the receiving endpoint (and optionally a timing wheel)."""
        self.wheel = wheel
        self.sink = sink
        self.sink_dir = sink_dir

    def send_at(self, item: T, arrival: int) -> None:
        """Enqueue with an explicit arrival cycle (must be monotone)."""
        q = self._q
        if q and q[-1][0] > arrival:
            raise ValueError("channel arrivals must be monotone")
        q.append((arrival, item))
        self.sent += 1
        wheel = self.wheel
        if wheel is not None:
            bucket = wheel.get(arrival)
            if bucket is None:
                wheel[arrival] = [self]
            else:
                bucket.append(self)

    def peek_arrivals(self) -> Iterator[tuple[int, T]]:
        """Iterate (arrival, item) without consuming — for drain checks."""
        return iter(self._q)

    def clear(self) -> None:
        """Drop everything in flight (power-state reconfiguration only).

        Stale wheel entries remain; the kernel drops them when their
        buckets come due (see the module docstring contract).
        """
        self._q.clear()

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self, encode=None) -> dict:
        """In-flight items + the utilization counter.

        Wheel registration is deliberately *not* serialized — it is
        kernel-local derived state; :meth:`reschedule` rebuilds it on
        restore from the queue contents alone, which is also what makes
        snapshots portable across kernels.
        """
        if encode is None:
            q = [[arrival, item] for arrival, item in self._q]
        else:
            q = [[arrival, encode(item)] for arrival, item in self._q]
        return {"q": q, "sent": self.sent}

    def restore_state(self, data: dict, decode=None) -> None:
        if decode is None:
            self._q = deque((arrival, item) for arrival, item in data["q"])
        else:
            self._q = deque((arrival, decode(item))
                            for arrival, item in data["q"])
        self.sent = data["sent"]

    def reschedule(self) -> None:
        """File one wheel entry per queued item, at its arrival.

        Called once per channel at the end of a network restore, after
        the owning kernel's wheels have been cleared; a no-op for
        unbound (dense/standalone) channels and empty queues.
        """
        wheel = self.wheel
        if wheel is not None:
            for arrival, _ in self._q:
                wheel.setdefault(arrival, []).append(self)


class CreditChannel(DelayChannel[int]):
    """Credit return wire. Items are global VC indices being credited."""

    __slots__ = ()
