"""Ring-buffered structured event tracer.

The tracer is the single hot-path-facing object of the observability
layer.  Design constraints (see ``docs/observability.md``):

* **Off = free.**  Instrumented code guards every emission with one
  ``if <obj>._tracer is not None`` attribute test; when no tracer is
  attached nothing is allocated and no call is made.  The ``kernel_*``
  workloads of ``bench/`` run with tracing off and pin this.
* **On = cheap.**  :meth:`emit` performs one optional frozenset lookup
  (kind filter), one tuple allocation and one list-slot store.  The
  buffer is a fixed-size ring: tracing a long run can never exhaust
  memory — old events are overwritten and counted in :attr:`dropped`.
* **Ordered.**  Events are emitted in simulation order (the kernels are
  single-threaded), so :meth:`events` returns a cycle-monotone stream.
"""

from __future__ import annotations

from typing import Iterable

from .events import EVENT_KINDS, TraceEvent

#: default ring capacity (events); ~60 MB worst case of small tuples
DEFAULT_CAPACITY = 1 << 20


class Tracer:
    """Fixed-capacity structured event ring buffer.

    ``kinds`` restricts recording to a subset of :data:`EVENT_KINDS`
    (``None`` records everything).  Unknown kind names raise at
    construction so typos fail fast rather than silently tracing
    nothing.
    """

    __slots__ = ("capacity", "kinds", "_buf", "_n")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 kinds: Iterable[str] | None = None) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        if kinds is not None:
            kinds = frozenset(kinds)
            unknown = kinds - set(EVENT_KINDS)
            if unknown:
                raise ValueError(f"unknown event kinds: {sorted(unknown)}; "
                                 f"expected a subset of {EVENT_KINDS}")
        self.capacity = capacity
        self.kinds: frozenset[str] | None = kinds
        self._buf: list[TraceEvent | None] = [None] * capacity
        self._n = 0  # events recorded post-filter (monotone)

    # -- recording (hot path) ------------------------------------------------

    def emit(self, cycle: int, kind: str, node: int, *data) -> None:
        """Record one event; drops silently when filtered by ``kinds``."""
        kinds = self.kinds
        if kinds is not None and kind not in kinds:
            return
        n = self._n
        self._buf[n % self.capacity] = TraceEvent(cycle, kind, node, data)
        self._n = n + 1

    # -- inspection ----------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Total events recorded (including any since overwritten)."""
        return self._n

    @property
    def dropped(self) -> int:
        """Events lost to ring wraparound (0 while under capacity)."""
        return max(0, self._n - self.capacity)

    def __len__(self) -> int:
        """Events currently held in the ring."""
        return min(self._n, self.capacity)

    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first (wraparound unfolded)."""
        n, cap = self._n, self.capacity
        if n <= cap:
            return [e for e in self._buf[:n] if e is not None]
        cut = n % cap
        out = self._buf[cut:] + self._buf[:cut]
        return [e for e in out if e is not None]

    def clear(self) -> None:
        """Forget everything (the ring stays allocated)."""
        self._buf = [None] * self.capacity
        self._n = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        filt = "all" if self.kinds is None else ",".join(sorted(self.kinds))
        return (f"<Tracer {len(self)}/{self.capacity} events "
                f"(+{self.dropped} dropped) kinds={filt}>")
