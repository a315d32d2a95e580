"""Timing summaries and in-memory spans shared by the workloads."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter_ns

#: candidate tail percentiles, highest first
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile in :data:`TAILS`
    that still has at least ten samples beyond it, or None."""
    n = len(values)
    for p in TAILS:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, sorted(values)[int(n * p / 100.0)]
    return None


def summary(values, scale: float = 1.0) -> dict:
    """``{"median", "tail_p", "tail", "n"}`` of ``values * scale``."""
    t = tail(values)
    return {"median": median(values) * scale,
            "tail_p": None if t is None else t[0],
            "tail": None if t is None else t[1] * scale,
            "n": len(values)}


def rotations(names, rounds: int):
    """``rounds`` orderings of ``names``, each starting one further along,
    so that no variant always runs in another's wake."""
    names = list(names)
    for r in range(rounds):
        k = r % len(names)
        yield names[k:] + names[:k]


@dataclass
class Op:
    """One attempted operation of a pass (cell / sweep call / job)."""

    kind: str
    seconds: float
    #: what the program returned, compared with the warm-up pass
    outcome: object
    #: why it failed ("" = ok so far; the driver adds deadline/determinism)
    why: str = ""


@dataclass
class Pass:
    """One pass: its operations plus workload-specific timing samples."""

    ops: list[Op]
    seconds: float
    #: simulated cycles the pass executed
    cycles: int
    #: samples for ``warm_op_ms`` that are not whole operations
    #: (100-cycle slices of the kernel loop), seconds
    slices: list[float] = field(default_factory=list)
    #: exact counts observed during the pass (compared across passes)
    counts: dict[str, int] = field(default_factory=dict)


class Trace:
    """Spans kept in memory until the run ends.

    A span is ``(trace, id, parent, name, start_ns, dur_ns, attrs)``;
    every span of one pass shares the pass's trace id.  Ids are list
    positions, so they are unique across passes.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.trace = 0

    def add(self, name: str, parent: int | None, start_ns: int,
            dur_ns: int, **attrs) -> int:
        if parent is None:  # a root span (a pass) starts a new trace
            self.trace += 1
        self.rows.append((self.trace, len(self.rows), parent, name,
                          start_ns, dur_ns, attrs))
        return len(self.rows) - 1

    def open(self, name: str, parent: int | None, **attrs) -> int:
        """Start a span now; :meth:`close` fills in its duration."""
        return self.add(name, parent, perf_counter_ns(), -1, **attrs)

    def close(self, span: int, **attrs) -> None:
        t, i, parent, name, start, _, old = self.rows[span]
        self.rows[span] = (t, i, parent, name, start,
                           perf_counter_ns() - start, {**old, **attrs})

    def call(self, name: str, parent: int | None, fn, *args):
        """Run ``fn(*args)`` inside a span; returns its result."""
        start = perf_counter_ns()
        result = fn(*args)
        self.add(name, parent, start, perf_counter_ns() - start)
        return result

    def spans(self, name: str,
              under: str | None = None) -> list[tuple[int, dict]]:
        """``(dur_ns, attrs)`` of every span called ``name`` (whose parent
        is called ``under``)."""
        return [(r[5], r[6]) for r in self.rows if r[3] == name
                and (under is None or (r[2] is not None
                                       and self.rows[r[2]][3] == under))]

    def median_ns(self, name: str, under: str | None = None) -> float:
        return median(d for d, _ in self.spans(name, under))

    def write(self, path) -> None:
        """One JSON object per span; self time = span minus children."""
        child_ns = [0] * len(self.rows)
        for r in self.rows:
            if r[2] is not None:
                child_ns[r[2]] += r[5]
        with open(path, "w") as fh:
            for r in self.rows:
                fh.write(json.dumps({
                    "trace": r[0], "id": r[1], "parent": r[2], "name": r[3],
                    "start_ns": r[4], "dur_ns": r[5],
                    "self_ns": r[5] - child_ns[r[1]], **r[6]}) + "\n")
