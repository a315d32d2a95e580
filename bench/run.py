#!/usr/bin/env python3
"""One measurement ladder: kernel -> sweep -> service, four workloads.

    python3 bench/run.py --workload kernel_gated --seed 7 --seconds 24 \\
        --trace 0 [--quick] [--out bench/out/A.json]

A single process, no spawned workers.  It builds the workload's inputs
from ``--seed``, sets up three times (each set-up ends with one untimed
warm-up pass), repeats passes of fixed work until ``--seconds`` are
spent, checks every operation, and prints one JSON object as the last
line of stdout.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics of a separate traced run; ``BENCHMARK.json``
declares both sets and this driver refuses to print anything else.
``--quick`` is a 1/10-size mode for ``test_bench.py``; its numbers are
not comparable with a full run's.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import sys
from pathlib import Path
from time import perf_counter as clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: workload name -> (module, class)
WORKLOADS = {
    "kernel_gated": ("wl_kernel", "KernelWorkload"),
    "kernel_loaded": ("wl_kernel", "KernelWorkload"),
    "sweep_grid": ("wl_sweep", "SweepWorkload"),
    "service_jobs": ("wl_service", "ServiceWorkload"),
}
#: set-ups per run; setup_s is their median
SETUPS = 3
#: peak_rss_mb is read at the end of this pass, so it does not depend on
#: how many passes the host fits in
MIN_PASSES = 5
#: operation kinds behind cold_op_ms / warm_op_ms (kernel workloads have
#: no warm operation; their 100-cycle slices stand in)
COLD_KINDS = ("cell", "cold")
WARM_KINDS = ("warm", "hit")
#: the one per-layer metric every workload reports
TRACE_OVERHEAD = "obs.trace_overhead"


def commit() -> str | None:
    """HEAD of the checkout, or None (the driver's copy is not a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def kernel_equivalence(seed: int):
    """Once per run: a 600-cycle gFLOV cell must not differ between the
    ``active`` kernel and the ``dense`` reference."""
    from measure import Op
    from repro.harness import result_to_dict, run_spec, stable_digest
    from repro.spec import ExperimentSpec
    t0 = clock()
    a, d = (stable_digest(result_to_dict(run_spec(ExperimentSpec(
        mechanism="gflov", rate=0.02, gated_fraction=0.6, warmup=100,
        measure=500, seed=seed % 2 ** 31, kernel=kernel))))
        for kernel in ("active", "dense"))
    return Op("kernel_equivalence", clock() - t0, a,
              "" if a == d else "active and dense kernels disagree")


class Judge:
    """Counts attempted and failed operations."""

    def __init__(self, deadline_s: float) -> None:
        self.deadline_s = deadline_s
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def ops(self, ops, warm_ops=None) -> None:
        for i, op in enumerate(ops):
            why = op.why
            if not why and op.seconds > self.deadline_s:
                why = f"missed its {self.deadline_s:g} s deadline"
            if (not why and warm_ops is not None
                    and op.outcome != warm_ops[i].outcome):
                why = "result differs from the warm-up pass"
            self.attempted += 1
            if why:
                self.fail(f"{op.kind}: {why}")

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(why)

    def run_pass(self, workload, warm, trace=None):
        """One checked pass, or None when an operation raised (then every
        operation of the pass counts as failed)."""
        try:
            p = workload.run_pass(trace)
        except Exception as exc:  # a failed pass must not end the run
            self.attempted += len(warm.ops)
            self.fail(f"pass raised {type(exc).__name__}: {exc}",
                      len(warm.ops))
            return None
        self.ops(p.ops, warm.ops)
        if p.counts != warm.counts:
            self.fail(f"counts {p.counts} differ from the warm-up pass")
        return p


def end_to_end(passes, rss_mb, setup_s, simulated) -> tuple[dict, dict]:
    """The end-to-end metrics, plus every timing as median/tail/n."""
    from measure import median, summary
    ops = [op for p in passes for op in p.ops]
    cold = [op.seconds for op in ops if op.kind in COLD_KINDS]
    warm = ([s for p in passes for s in p.slices]
            or [op.seconds for op in ops if op.kind in WARM_KINDS])
    timings = {
        "pass_s": summary([p.seconds for p in passes]),
        "cold_op_ms": summary(cold, 1e3),
        "warm_op_ms": summary(warm, 1e3),
    }
    for kind in sorted({op.kind for op in ops} - {"metrics"}):
        timings[f"op.{kind}_ms"] = summary(
            [op.seconds for op in ops if op.kind == kind], 1e3)
    metrics = {
        "setup_s": setup_s,
        "pass_s": timings["pass_s"]["median"],
        "sim_cycles_per_s": median(p.cycles / p.seconds for p in passes),
        "cold_op_ms": timings["cold_op_ms"]["median"],
        "warm_op_ms": timings["warm_op_ms"]["median"],
        "peak_rss_mb": rss_mb,
        "gflov_static_ratio": simulated[0],
        "gflov_latency_ratio": simulated[1],
    }
    return metrics, timings


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="1/10-size inputs (tests only; not comparable)")
    ap.add_argument("--out", type=Path,
                    help="append this run's record to a result file")
    args = ap.parse_args(argv)

    # every cycle count, kernel and cache directory is passed explicitly
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = decl["run_seconds"] if args.seconds is None else args.seconds
    rounds = 2 if args.quick else 5

    t0 = clock()
    for path in (str(BENCH), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from this checkout")
    module, cls = WORKLOADS[args.workload]
    factory = getattr(importlib.import_module(module), cls)
    from measure import Trace, median
    import_s = clock() - t0

    out_dir = BENCH / "out" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True)
    # a terminated run still stops its service and removes its scratch
    on_term = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = None
    try:
        setups = []
        for _ in range(SETUPS):
            if workload is not None:
                workload.close()
            t0 = clock()
            workload = factory(args.workload, args.seed, args.quick)
            workload.boot(out_dir)
            warm = workload.run_pass()
            setups.append(clock() - t0)
        setup_s = import_s + median(setups)

        judge = Judge(workload.deadline_s)
        judge.ops(warm.ops)
        judge.ops(workload.reference(warm))
        judge.ops([kernel_equivalence(args.seed)])

        if not args.trace:
            passes, rss_mb = [], 0.0
            t_end = clock() + seconds
            while clock() < t_end or len(passes) < MIN_PASSES:
                p = judge.run_pass(workload, warm)
                if p is None:
                    if clock() >= t_end:
                        raise SystemExit(
                            f"too few passes completed: {judge.failures}")
                    continue
                passes.append(p)
                if len(passes) == MIN_PASSES:
                    rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, timings = end_to_end(passes, rss_mb, setup_s,
                                          workload.simulated(warm))
            group = "end_to_end"
        else:
            # untraced and traced passes interleaved: their ratio is the
            # tracing overhead, reported beside the layers it perturbs
            trace = Trace()
            plain, traced = [], []
            t_half = clock() + seconds / 2
            while len(traced) < rounds or clock() < t_half:
                for samples, tr in ((plain, None), (traced, trace)):
                    p = judge.run_pass(workload, warm, tr)
                    if p is None:
                        raise SystemExit(
                            f"traced run failed: {judge.failures}")
                    samples.append(p.seconds)
            passes = traced
            metrics = workload.layers(trace, warm, rounds)
            metrics[TRACE_OVERHEAD] = median(traced) / median(plain) - 1
            timings = {}
            trace.write(BENCH / "out" / f"trace-{args.workload}.jsonl")
            group = "per_layer"
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(out_dir, ignore_errors=True)
        signal.signal(signal.SIGTERM, on_term)
        for child in multiprocessing.active_children():
            child.join(30)
            if child.is_alive():
                child.kill()
                child.join()

    units = {m["name"]: m["unit"] for m in decl[group]}
    measured = set(metrics)
    if args.trace:
        # a layer this workload never enters reads 0
        unknown = ((measured - set(units))
                   | (measured ^ {*workload.layer_names, TRACE_OVERHEAD}))
        metrics = {name: metrics.get(name, 0.0) for name in units}
    else:
        unknown = measured ^ set(units)
    if unknown:
        raise SystemExit(f"metrics measured and metrics declared differ: "
                         f"{sorted(unknown)}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": seconds, "quick": args.quick, "commit": commit(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "passes": len(passes), "timings": timings,
        "failures": judge.failures[:20],
    }
    result = {
        "correct": judge.failed == 0, "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.out is not None:
        doc = (json.loads(args.out.read_text()) if args.out.exists()
               else {"schema": 1, "runs": []})
        doc["runs"].append({**record, **result})
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} attempted={judge.attempted} "
          f"failed={judge.failed}")
    for why in judge.failures[:20]:
        print(f"# FAILED {why}")
    for name, t in timings.items():
        tail = ("" if t["tail_p"] is None
                else f"  p{t['tail_p']:g} {t['tail']:.4g}")
        print(f"# {name:<24} median {t['median']:.4g}{tail}  n={t['n']}")
    for name in (n for n in units if n in measured):
        print(f"# {name:<28} {metrics[name]:.6g} {units[name]}")
    print(json.dumps(result))
    return {**record, **result}


if __name__ == "__main__":
    main()
