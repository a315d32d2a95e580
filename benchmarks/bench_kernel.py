"""Kernel performance benchmark: activity-driven vs dense reference.

Times the ``bench_fig6_uniform`` cell grid (uniform random @ 0.02
flits/cycle/node, gated fractions 0.0/0.4/0.6/0.8, all five mechanisms)
under both simulation kernels, asserts their results are identical, and
writes ``BENCH_kernel.json`` at the repo root.

Three ratios are recorded per cell:

* ``dense_over_active`` — in-tree dense/active wall-clock ratio.  Both
  kernels share the flattened router/handshake hot paths, so this
  isolates the *kernel* win (event wheel + active set).  It is
  hardware-independent enough to serve as the CI regression guard
  (``--check``).
* ``active_over_batched`` — solo-active wall-clock over the *per
  replica* wall-clock of one ``run_spec_batch`` invocation stepping
  ``batch_size`` seed-varied replicas of the cell (the first replica's
  result must equal the solo run).  Per-replica phases dominate this
  workload (see docs/performance.md), so honest values sit near parity
  (~0.9–1.1x): the column exists to *prove batching costs nothing* per
  replica while collapsing a grid into one invocation, and to catch
  regressions in the batch engine itself.
* ``seed_over_active`` — wall-clock of the pre-optimization tree (the
  commit recorded under ``seed_baseline``) over the current active
  kernel, measured on the same host in the same session via
  ``--seed-tree``.  This is the end-to-end speedup the PR delivers and
  includes the hot-path flattening shared by both kernels.

Usage::

    python benchmarks/bench_kernel.py                     # measure + write
    python benchmarks/bench_kernel.py --seed-tree PATH    # + seed baseline
    python benchmarks/bench_kernel.py --quick             # small grid
    python benchmarks/bench_kernel.py --check BENCH_kernel.json \
        --tolerance 0.30                                  # CI regression gate

``--check`` re-times the grid and fails (exit 1) if any gated ratio
falls more than ``--tolerance`` (fractional) below the recorded value,
if the recorded snapshot predates a gated column (named-cell message:
regenerate the snapshot), or if the kernels' results ever diverge.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)

# Appended (not prepended) so the --worker subprocess, whose PYTHONPATH
# points at a seed-tree checkout, still imports *that* tree's repro.
sys.path.append(os.path.join(_ROOT, "src"))

from repro.config import MECHANISMS  # noqa: E402  (registry-derived)

FRACTIONS = (0.0, 0.4, 0.6, 0.8)
QUICK_FRACTIONS = (0.0, 0.6)

#: the bench_fig6_uniform low-load workload (short mode)
WORKLOAD = dict(pattern="uniform", rate=0.02, warmup=500, measure=5000,
                seed=3)


def _cells(quick: bool) -> list[dict]:
    fractions = QUICK_FRACTIONS if quick else FRACTIONS
    return [{"mechanism": m, "gated_fraction": f}
            for m in MECHANISMS for f in fractions]


def _time_once(run_synthetic, cell: dict, kernel: str | None) -> tuple:
    kw = dict(WORKLOAD, gated_fraction=cell["gated_fraction"])
    if kernel is not None:
        kw["kernel"] = kernel
    t0 = time.perf_counter()
    res = run_synthetic(cell["mechanism"], **kw)
    return time.perf_counter() - t0, res


def _best_of(run_synthetic, cell: dict, kernel: str | None,
             repeats: int) -> tuple:
    best, res = _time_once(run_synthetic, cell, kernel)
    for _ in range(repeats - 1):
        t, res = _time_once(run_synthetic, cell, kernel)
        best = min(best, t)
    return best, res


def _measure_tree(cells: list[dict], repeats: int) -> list[float]:
    """Worker: time each cell with whatever ``repro`` is importable."""
    from repro.harness import run_synthetic
    return [_best_of(run_synthetic, c, None, repeats)[0] for c in cells]


def _measure_seed(seed_tree: str, cells: list[dict],
                  repeats: int) -> tuple[list[float], str]:
    """Time the pre-optimization tree in a subprocess (its own repro)."""
    src = os.path.join(seed_tree, "src")
    if not os.path.isdir(src):
        raise SystemExit(f"--seed-tree: no src/ under {seed_tree}")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("REPRO_KERNEL", None)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker",
         json.dumps(cells), "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, check=True)
    commit = subprocess.run(["git", "-C", seed_tree, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return (json.loads(out.stdout.strip().splitlines()[-1]),
            commit.stdout.strip() or "unknown")


def _geomean(xs: list[float]) -> float:
    import math
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def _best_batch(cell: dict, batch_size: int, repeats: int) -> tuple:
    """Per-replica best-of-N wall-clock of one batched invocation.

    The batch steps ``batch_size`` replicas of the cell that differ
    only in seed (``seed .. seed + B - 1``); the first replica matches
    the solo workload exactly, so its result doubles as the
    batched-vs-active equivalence probe.
    """
    from repro.noc.batched import run_spec_batch
    from repro.spec import ExperimentSpec

    specs = [ExperimentSpec(mechanism=cell["mechanism"],
                            pattern=WORKLOAD["pattern"],
                            rate=WORKLOAD["rate"],
                            gated_fraction=cell["gated_fraction"],
                            warmup=WORKLOAD["warmup"],
                            measure=WORKLOAD["measure"],
                            seed=WORKLOAD["seed"] + i)
             for i in range(batch_size)]
    best, results = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        results = run_spec_batch(specs)
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return best / batch_size, results[0]


def measure(cells: list[dict], repeats: int, batch_size: int) -> list[dict]:
    from repro.harness import run_synthetic

    rows = []
    for cell in cells:
        t_active, r_active = _best_of(run_synthetic, cell, "active", repeats)
        t_dense, r_dense = _best_of(run_synthetic, cell, "dense", repeats)
        if r_active != r_dense:
            raise SystemExit(
                f"KERNEL DIVERGENCE at {cell}: dense and active kernels "
                f"produced different results")
        t_batched, r_batched = _best_batch(cell, batch_size, repeats)
        if r_active != r_batched:
            raise SystemExit(
                f"KERNEL DIVERGENCE at {cell}: batched replica 0 differs "
                f"from the solo active run")
        cycles = WORKLOAD["warmup"] + WORKLOAD["measure"]
        row = dict(cell, active_s=round(t_active, 4),
                   dense_s=round(t_dense, 4),
                   batched_s=round(t_batched, 4),
                   batch_size=batch_size,
                   dense_over_active=round(t_dense / t_active, 3),
                   active_over_batched=round(t_active / t_batched, 3),
                   active_cycles_per_s=round(cycles / t_active),
                   dense_cycles_per_s=round(cycles / t_dense))
        rows.append(row)
        print(f"  {cell['mechanism']:>8} f={cell['gated_fraction']:.1f}  "
              f"active {t_active*1e3:7.1f} ms   dense {t_dense*1e3:7.1f} ms"
              f"   ratio {row['dense_over_active']:.2f}x   "
              f"batched {t_batched*1e3:7.1f} ms/replica "
              f"({row['active_over_batched']:.2f}x)", file=sys.stderr)
    return rows


def summarize(rows: list[dict]) -> dict:
    def pick(key, pred):
        return [r[key] for r in rows if key in r and pred(r)]

    out = {}
    for key in ("dense_over_active", "active_over_batched",
                "seed_over_active"):
        low = pick(key, lambda r: r["gated_fraction"] == 0.0)
        gated = pick(key, lambda r: r["gated_fraction"] >= 0.4)
        if low:
            out[f"{key}_low_load"] = {
                "min": min(low), "geomean": round(_geomean(low), 3),
                "max": max(low)}
        if gated:
            out[f"{key}_gated_ge40"] = {
                "min": min(gated), "geomean": round(_geomean(gated), 3),
                "max": max(gated)}
    return out


def check(rows: list[dict], baseline_path: str, tolerance: float) -> int:
    """Gate freshly measured rows against a recorded snapshot.

    ``baseline_path`` may be a local path or a ``file://``/``http(s)://``
    URL — loading and the gate rule itself are shared with
    :mod:`repro.harness.benchdiff` (and the service's ``/bench``
    endpoint), so every consumer fails with identical messages.
    """
    # imported here: the --worker subprocess runs this file against a
    # seed-tree ``repro`` that predates the module
    from repro.harness.benchdiff import check_cells, load_bench_source
    recorded = load_bench_source(baseline_path)
    failures = check_cells(rows, recorded, tolerance=tolerance,
                           source=baseline_path)
    if failures:
        print("KERNEL PERFORMANCE REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"kernel check OK: {len(rows)} cells within {tolerance:.0%} of "
          f"{baseline_path}")
    return 0


def snapshot_doc(rows: list[dict], repeats: int) -> dict:
    """The on-disk snapshot document for a set of measured cells."""
    return {
        "schema": 1,
        "benchmark": "bench_fig6_uniform cells, dense vs active vs "
                     "batched kernel",
        "generated_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "host": {"python": platform.python_version(),
                 "platform": platform.platform(),
                 "cpu_count": os.cpu_count()},
        "workload": dict(WORKLOAD, mesh="8x8",
                         repeats=repeats, timer="best-of-N"),
        "cells": rows,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N wall-clock repeats (default 3)")
    ap.add_argument("--batch-size", type=int, default=8,
                    help="replicas per batched-kernel invocation "
                         "(default 8)")
    ap.add_argument("--quick", action="store_true",
                    help="small grid (fractions 0.0/0.6) for CI smoke")
    ap.add_argument("--out", default=os.path.join(_ROOT, "BENCH_kernel.json"),
                    help="output JSON path (default: repo root)")
    ap.add_argument("--check", metavar="JSON",
                    help="compare against a recorded BENCH_kernel.json "
                         "instead of writing one")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional ratio drop in --check mode")
    ap.add_argument("--emit", metavar="JSON",
                    help="also write the freshly measured snapshot (works "
                         "in --check mode; feed it to 'repro bench diff')")
    ap.add_argument("--seed-tree", metavar="PATH",
                    help="checkout of the pre-optimization commit; adds "
                         "seed_over_active ratios with provenance")
    ap.add_argument("--worker", metavar="CELLS_JSON",
                    help=argparse.SUPPRESS)  # internal: seed-tree subprocess
    args = ap.parse_args(argv)

    if args.worker:
        print(json.dumps(_measure_tree(json.loads(args.worker),
                                       args.repeats)))
        return 0

    cells = _cells(args.quick)
    print(f"timing {len(cells)} cells x 3 kernels (batch size "
          f"{args.batch_size}), best of {args.repeats} "
          f"(workload: {WORKLOAD})", file=sys.stderr)
    rows = measure(cells, args.repeats, args.batch_size)

    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(snapshot_doc(rows, args.repeats), fh, indent=2)
            fh.write("\n")
        print(f"emitted measured snapshot to {args.emit}", file=sys.stderr)

    if args.check:
        return check(rows, args.check, args.tolerance)

    doc = snapshot_doc(rows, args.repeats)
    if args.seed_tree:
        print("timing pre-optimization seed tree "
              f"({args.seed_tree})...", file=sys.stderr)
        seed_times, commit = _measure_seed(args.seed_tree, cells,
                                           args.repeats)
        for row, t in zip(rows, seed_times):
            row["seed_s"] = round(t, 4)
            row["seed_over_active"] = round(t / row["active_s"], 3)
        doc["seed_baseline"] = {
            "commit": commit,
            "description": "pre-optimization tree (dense per-cycle loop, "
                           "unflattened hot paths) timed on the same host "
                           "in the same session",
        }
    doc["summary"] = summarize(rows)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    print(json.dumps(doc["summary"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
