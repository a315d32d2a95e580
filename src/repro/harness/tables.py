"""ASCII renderers that print the same rows/series the paper's figures
plot. ``repro sweep`` / ``repro spec run`` and ``repro parsec`` print
them, and EXPERIMENTS.md pins their output verbatim."""

from __future__ import annotations

from typing import Mapping, Sequence

from .runner import ExperimentResult


def _fmt(v: float, width: int = 8, prec: int = 2) -> str:
    return f"{v:{width}.{prec}f}"


def _spans_rates(series: Mapping[str, Sequence[ExperimentResult]]) -> bool:
    """True when the rows cover more than one injection rate, so a
    gated fraction alone no longer names a row."""
    return len({r.rate for rs in series.values() for r in rs}) > 1


def series_table(title: str, series: Mapping[str, Sequence[ExperimentResult]],
                 metric: str, *, xlabel: str = "gated%",
                 scale: float = 1.0, prec: int = 2) -> str:
    """One row per x-value, one column per mechanism (rows also carry
    their injection rate when the series spans several)."""
    mechs = list(series)
    rate = _spans_rates(series)
    lines = [title, (f"{'rate':>6} | " if rate else "")
             + f"{xlabel:>8} | " + " | ".join(f"{m:>9}" for m in mechs)]
    lines.append("-" * len(lines[-1]))
    for i, r in enumerate(series[mechs[0]]):
        cells = []
        for m in mechs:
            v = getattr(series[m][i], metric) * scale
            cells.append(f"{v:9.{prec}f}")
        lines.append((f"{r.rate:6g} | " if rate else "")
                     + f"{r.gated_fraction * 100:8.0f} | " + " | ".join(cells))
    return "\n".join(lines)


def breakdown_table(title: str,
                    series: Mapping[str, Sequence[ExperimentResult]]) -> str:
    """Figure 8-style latency decomposition table."""
    rate = _spans_rates(series)
    lines = [title,
             f"{'mech':>9} " + (f"{'rate':>6} " if rate else "")
             + f"{'gated%':>7} {'router':>8} {'link':>8} "
             f"{'serial':>8} {'flov':>8} {'contend':>8} {'total':>8}"]
    lines.append("-" * len(lines[-1]))
    for mech, results in series.items():
        for r in results:
            b = r.breakdown
            lines.append(
                f"{mech:>9} " + (f"{r.rate:6g} " if rate else "")
                + f"{r.gated_fraction * 100:7.0f} "
                f"{_fmt(b.router)} {_fmt(b.link)} {_fmt(b.serialization)} "
                f"{_fmt(b.flov)} {_fmt(b.contention)} {_fmt(b.total)}")
    return "\n".join(lines)


def normalized_table(title: str, rows: Mapping[str, Mapping[str, float]],
                     baseline: str, *, prec: int = 3) -> str:
    """Rows of metrics normalized to a named baseline column."""
    metrics = list(next(iter(rows.values())))
    lines = [title,
             f"{'series':>12} | " + " | ".join(f"{m:>10}" for m in metrics)]
    lines.append("-" * len(lines[-1]))
    base = rows[baseline]
    for name, vals in rows.items():
        cells = []
        for m in metrics:
            denom = base[m] if base[m] else 1.0
            cells.append(f"{vals[m] / denom:10.{prec}f}")
        lines.append(f"{name:>12} | " + " | ".join(cells))
    return "\n".join(lines)
