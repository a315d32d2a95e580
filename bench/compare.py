#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 bench/compare.py A.json B.json [--model-changed]

One row per workload x end-to-end metric, A being the parent and B the
change:

* ``ok`` -- B's median is not worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``regressed`` -- it is; when both files carry a traced run of that
  workload, the row names the per-layer time that grew most;
* ``unresolved`` -- either side's own quartile spread exceeds the bound
  (needs four runs a side), unless every run of B reads better than
  every run of A.

Beside the rows: ``failed_ratio`` (failed over attempted operations) may
not rise, and every exact count and both simulated metrics must be
identical seed by seed unless ``--model-changed`` says the simulation was
meant to change.  Exits 1 on any ``regressed`` row, risen failure ratio
or unexpected change of an exact value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: simulated end-to-end metrics: exact for a seed
SIMULATED = ("gflov_static_ratio", "gflov_latency_ratio")
#: per-layer times that contain other per-layer times; a regression is
#: attributed to the innermost layer that grew
CONTAINERS = ("noc.step_us.", "harness.warm_cell_us", "service.submit_ms",
              "service.dedupe_batch_ms")
TIME_UNITS = ("s", "ms", "us")


def load(path: Path) -> dict:
    """``{(workload, trace): [run, ...]}``"""
    groups: dict = {}
    for run in json.loads(path.read_text())["runs"]:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    return groups


def values(runs, name) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs]


def spread(xs) -> float | None:
    """Quartile distance over the median, or None under four runs."""
    if len(xs) < 4:
        return None
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    """(``ok`` | ``regressed`` | ``unresolved``, worsening of the median
    as a share of A's)."""
    lower = better == "lower"
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    wide = any(s is not None and s > bound for s in (spread(a), spread(b)))
    if wide:
        b_wins = max(b) < min(a) if lower else min(b) > max(a)
        return ("ok" if b_wins else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def grown_layer(a_runs, b_runs, layers) -> str | None:
    """The innermost per-layer time that grew most from A to B."""
    best = None
    for m in layers:
        name = m["name"]
        if m["unit"] not in TIME_UNITS or name.startswith(CONTAINERS):
            continue
        ma = statistics.median(values(a_runs, name))
        mb = statistics.median(values(b_runs, name))
        if ma > 0 and (best is None or mb / ma > best[0]):
            best = (mb / ma, name)
    if best is None or best[0] <= 1:
        return None
    return f"{best[1]} x{best[0]:.2f}"


def exact_changes(a_runs, b_runs, names) -> list[str]:
    """Exact values that differ between runs of the same seed."""
    by_seed = {r["seed"]: r for r in a_runs}
    out = []
    for r in b_runs:
        twin = by_seed.get(r["seed"])
        if twin is None or r["quick"] != twin["quick"]:
            continue
        for name in names:
            va, vb = (x["metrics"][name]["value"] for x in (twin, r))
            if va != vb:
                out.append(f"{r['workload']} seed {r['seed']}: {name} "
                           f"{va!r} -> {vb!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--model-changed", action="store_true",
                    help="exact counts and simulated metrics may differ")
    args = ap.parse_args(argv)
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(args.a), load(args.b)
    counts = [m["name"] for m in decl["per_layer"] if m["unit"] == "count"]
    bad = 0
    changed: list[str] = []

    def pct(x):
        return "" if x is None else f"{x:.1%}"

    print(f"{'workload':<14} {'metric':<20} {'A':>11} {'B':>11} "
          f"{'iqrA':>6} {'iqrB':>6} {'worse':>7} {'bound':>6}  verdict")
    for w in [w["name"] for w in decl["workloads"]]:
        ra, rb = a.get((w, 0)), b.get((w, 0))
        ta, tb = a.get((w, 1)), b.get((w, 1))
        if ta and tb:
            changed += exact_changes(ta, tb, counts)
        if not ra or not rb:
            continue
        changed += exact_changes(ra, rb, SIMULATED)
        for m in decl["end_to_end"]:
            va, vb = values(ra, m["name"]), values(rb, m["name"])
            what, worse = verdict(va, vb, m["better"], m["bound"])
            note = ""
            if what == "regressed":
                bad += 1
                layer = grown_layer(ta, tb, decl["per_layer"]) \
                    if ta and tb else None
                note = f"  <- {layer}" if layer else ""
            print(f"{w:<14} {m['name']:<20} "
                  f"{statistics.median(va):>11.5g} "
                  f"{statistics.median(vb):>11.5g} {pct(spread(va)):>6} "
                  f"{pct(spread(vb)):>6} {worse:>+7.1%} "
                  f"{m['bound']:>6.0%}  {what}{note}")
        fa, fb = (sum(r["failed"] for r in runs)
                  / sum(r["attempted"] for r in runs) for runs in (ra, rb))
        rose = fb > fa
        bad += rose
        print(f"{w:<14} {'failed_ratio':<20} {fa:>11.5g} {fb:>11.5g} "
              f"{'':>28}  {'regressed' if rose else 'ok'}")

    for line in changed:
        print(f"exact value changed: {line}")
    if changed and not args.model_changed:
        bad += 1
        print("exact counts or simulated metrics changed; pass "
              "--model-changed if the simulation was meant to change")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
