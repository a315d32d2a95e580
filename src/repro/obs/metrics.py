"""Counters, gauges and histograms behind a :class:`MetricsRegistry`.

The registry is Prometheus-flavoured but deliberately tiny: three
instrument types, a cadence-driven ``sample()`` that snapshots every
scalar into a row of a time series, and CSV/JSON export
(:mod:`repro.obs.export`).  Instruments are created on first use
(``registry.counter("x")``) so instrumented code never needs
registration boilerplate.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Sequence

#: default histogram bucket upper bounds (cycles / occupancy counts);
#: roughly log-spaced, final implicit bucket is +inf
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class Counter:
    """Monotone event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-value-wins instantaneous measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket distribution (cumulative-free, exact sum/min/max).

    ``bounds`` are inclusive upper edges; one extra overflow bucket
    catches everything beyond the last bound.  ``counts[i]`` is the
    number of observations ``v`` with ``bounds[i-1] < v <= bounds[i]``.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        b = tuple(float(x) for x in bounds)
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = b
        self.counts = [0] * (len(b) + 1)  # +1 = overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        # inclusive upper edges: bisect_left finds the first bound
        # >= value, i.e. the bucket that owns it; values beyond the last
        # bound land in the overflow bucket (index len(bounds))
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

class MetricsRegistry:
    """Named instruments plus a sampled time series of their scalars.

    ``sample(cycle)`` appends one row per call: counters and gauges
    contribute their value under their own name; each histogram
    contributes ``<name>.count`` / ``<name>.mean`` / ``<name>.max`` so
    the CSV stays strictly scalar.  Full histogram detail (bucket
    bounds and counts) lives in the JSON export.
    """

    def __init__(self) -> None:
        self.instruments: dict[str, Counter | Gauge | Histogram] = {}
        self.rows: list[dict[str, float]] = []

    # -- instrument access (create on first use) -----------------------------

    def _get(self, name: str, cls, *args):
        inst = self.instruments.get(name)
        if inst is None:
            inst = self.instruments[name] = cls(name, *args)
        elif not isinstance(inst, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(inst).__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, bounds)

    # -- snapshots -----------------------------------------------------------

    def scalar_snapshot(self) -> dict[str, float]:
        """Every instrument reduced to CSV-friendly scalars."""
        out: dict[str, float] = {}
        for name, inst in self.instruments.items():
            if isinstance(inst, Histogram):
                out[f"{name}.count"] = inst.count
                out[f"{name}.mean"] = inst.mean
                out[f"{name}.max"] = inst.max if inst.count else 0.0
            else:
                out[name] = inst.value
        return out

    def sample(self, cycle: int,
               tags: dict[str, float] | None = None) -> dict[str, float]:
        """Append (and return) one time-series row for ``cycle``.

        ``tags`` adds row-level scalar annotations (e.g. the sampler's
        ``partial`` flag on a final, cadence-incomplete window); they
        land right after ``cycle`` in the column order."""
        row = {"cycle": float(cycle)}
        if tags:
            row.update(tags)
        row.update(self.scalar_snapshot())
        self.rows.append(row)
        return row

    def as_dict(self) -> dict[str, Any]:
        """Full JSON-ready dump: instrument detail + sampled series."""
        return {
            "instruments": {name: inst.as_dict()
                            for name, inst in self.instruments.items()},
            "samples": self.rows,
        }

    # -- Prometheus text exposition ------------------------------------------

    def prometheus_text(self,
                        help_text: dict[str, str] | None = None) -> str:
        """Render every instrument in Prometheus text exposition format.

        One ``# HELP`` / ``# TYPE`` pair per metric family; histograms
        expand to cumulative ``_bucket{le="..."}`` lines (inclusive
        upper edges match Prometheus ``le`` semantics exactly), a
        terminal ``+Inf`` bucket, ``_sum`` and ``_count``.  Dotted
        internal names are sanitized to underscores
        (``service.queue.depth`` → ``service_queue_depth``).  Scrapers
        and :func:`parse_prometheus_text` both accept the output.
        """
        help_text = help_text or {}
        lines: list[str] = []
        for name in sorted(self.instruments):
            inst = self.instruments[name]
            pname = prometheus_name(name)
            doc = help_text.get(name, f"repro metric {name}")
            if isinstance(inst, Counter):
                lines.append(f"# HELP {pname} {doc}")
                lines.append(f"# TYPE {pname} counter")
                lines.append(f"{pname} {_fmt_value(inst.value)}")
            elif isinstance(inst, Gauge):
                lines.append(f"# HELP {pname} {doc}")
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_fmt_value(inst.value)}")
            else:
                lines.append(f"# HELP {pname} {doc}")
                lines.append(f"# TYPE {pname} histogram")
                cum = 0
                for bound, n in zip(inst.bounds, inst.counts):
                    cum += n
                    lines.append(f'{pname}_bucket{{le="{_fmt_le(bound)}"}} '
                                 f"{cum}")
                lines.append(f'{pname}_bucket{{le="+Inf"}} {inst.count}')
                lines.append(f"{pname}_sum {_fmt_value(inst.total)}")
                lines.append(f"{pname}_count {inst.count}")
        return "\n".join(lines) + "\n"


def prometheus_name(name: str) -> str:
    """Sanitize an internal dotted metric name for Prometheus."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _fmt_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _fmt_le(bound: float) -> str:
    return format(bound, "g")


_NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^({_NAME_RE})(\{{[^{{}}]*\}})? "
    r"([-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))"
    r"(?: [0-9]+)?$")
_LABEL_RE = re.compile(rf'({_NAME_RE})="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict[str, dict[str, Any]]:
    """Strictly parse Prometheus text exposition into metric families.

    Raises :class:`ValueError` on any malformed line, on samples whose
    family carries no ``# TYPE``, on non-cumulative histogram buckets,
    or on a histogram whose ``+Inf`` bucket disagrees with ``_count``.
    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value), ...]}}`` — the in-process validity check CI runs against a
    live ``/metrics?format=prometheus`` scrape.
    """
    families: dict[str, dict[str, Any]] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name.removesuffix(suffix)
            if base != sample_name and families.get(base, {}).get(
                    "type") == "histogram":
                return base
        return sample_name

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment "
                                 f"{raw!r}")
            kind, name = parts[1], parts[2]
            fam = families.setdefault(
                name, {"type": None, "help": None, "samples": []})
            if kind == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                    raise ValueError(f"line {lineno}: unknown metric type "
                                     f"{parts[3]!r}")
                if fam["samples"]:
                    raise ValueError(f"line {lineno}: TYPE for {name!r} "
                                     "after its samples")
                fam["type"] = parts[3]
            else:
                fam["help"] = parts[3] if len(parts) > 3 else ""
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {raw!r}")
        sample_name, label_blob, value_s = m.group(1), m.group(2), m.group(3)
        labels = (dict(_LABEL_RE.findall(label_blob[1:-1]))
                  if label_blob else {})
        fam_name = family_of(sample_name)
        fam = families.get(fam_name)
        if fam is None or fam["type"] is None:
            raise ValueError(f"line {lineno}: sample {sample_name!r} has "
                             "no # TYPE declaration")
        fam["samples"].append((sample_name, labels, float(value_s)))

    for name, fam in families.items():
        if fam["type"] != "histogram":
            continue
        buckets = [(labels.get("le"), v) for s, labels, v in fam["samples"]
                   if s == f"{name}_bucket"]
        counts = [v for s, _, v in fam["samples"] if s == f"{name}_count"]
        if not buckets or buckets[-1][0] != "+Inf":
            raise ValueError(f"histogram {name!r} missing +Inf bucket")
        values = [v for _, v in buckets]
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError(f"histogram {name!r} buckets not cumulative")
        if not counts or counts[0] != values[-1]:
            raise ValueError(f"histogram {name!r} +Inf bucket disagrees "
                             "with _count")
    return families
