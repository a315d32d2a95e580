"""sweep_grid: a Fig. 6-shaped grid through the sweep engine and its cache.

What a user runs to regenerate a figure: one cold ``run_sweep_spec`` call
(20 builds + kernel + atomic cache writes), then four warm replays that
never enter the kernel (spec expansion, cache keys, JSON reads) -- writes
beside reads on the same store, so a harness gain and a kernel gain land
on different metrics.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from statistics import fmean
from time import perf_counter_ns as clock

from repro.harness import (BatchedExecutor, ParallelSweep, PoolExecutor,
                           ResultCache, SerialExecutor, SweepTask,
                           result_to_dict, run_spec, run_sweep_spec,
                           stable_digest)
from repro.obs import KernelProfiler
from repro.spec import SweepSpec

import wl_kernel
from measure import Op, Pass, rotations

GRID = dict(mechanisms=("baseline", "rp", "rflov", "gflov"), rates=(0.02,),
            gated_fractions=(0.0, 0.2, 0.4, 0.6, 0.8))
WARMUP, MEASURE = 200, 800
#: warm replays after the cold call of a pass
WARM_CALLS = 4
DEADLINE_S = 120.0

LAYERS = (
    "harness.run_spec_over_loop", "harness.sweep_over_run_spec",
    "harness.pool_over_serial", "harness.batched_over_serial",
    "spec.expand_ms", "spec.cache_key_us", "harness.cache_get_ms",
    "harness.warm_cell_us", "harness.cache_put_ms", "harness.cells_executed",
    "harness.cache_hits", "harness.cache_bytes", "cli.import_ms")


def series_digest(series) -> str:
    """Digest of a sweep result, as ``repro spec run`` prints it."""
    return stable_digest({m: [result_to_dict(r) for r in rs]
                          for m, rs in series.items()})


class SweepWorkload:
    deadline_s = DEADLINE_S
    layer_names = LAYERS

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        div = 10 if quick else 1
        self.spec = SweepSpec(**GRID, warmup=WARMUP // div,
                              measure=MEASURE // div,
                              seed=random.Random(seed).randrange(2 ** 31),
                              kernel="active")
        self.cells = self.spec.expand()
        self.out_dir = None
        self.stores = 0
        #: cycles one cold call simulates (known after reference())
        self.cycles = 0
        self.results = None

    def boot(self, out_dir) -> None:
        self.out_dir = out_dir

    def close(self) -> None:
        pass

    def _engine(self, executor, cache=None) -> ParallelSweep:
        return ParallelSweep(max_workers=1, executor=executor, cache=cache,
                             use_cache=cache is not None)

    def run_pass(self, trace=None) -> Pass:
        root = self.out_dir / f"store-{self.stores}"
        self.stores += 1
        engine = self._engine(SerialExecutor(), ResultCache(root))
        span = None if trace is None else trace.open("pass", None)
        ops = []
        executed = hits = stored = 0
        t0 = clock()
        try:
            for call in range(1 + WARM_CALLS):
                kind = "cold" if call == 0 else "warm"
                op_span = (None if trace is None
                           else trace.open(f"sweep.{kind}", span))
                t = clock()
                series = run_sweep_spec(self.spec, engine=engine)
                seconds = (clock() - t) / 1e9
                if trace is not None:
                    trace.close(op_span)
                want = 0 if call == 0 else len(self.cells)
                why = ("" if engine.last_cache_hits == want else
                       f"{kind} call hit the cache {engine.last_cache_hits} "
                       f"times, expected {want}")
                ops.append(Op(kind, seconds, series_digest(series), why))
                hits += engine.last_cache_hits
                executed += len(self.cells) - engine.last_cache_hits
                if call == 0:
                    stored = sum(p.stat().st_size
                                 for p in root.glob("*/*.json"))
            pass_s = (clock() - t0) / 1e9
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if trace is not None:
            trace.close(span)
        return Pass(ops, pass_s, self.cycles, [], {
            "harness.cells_executed": executed, "harness.cache_hits": hits,
            "harness.cache_bytes": stored})

    # -- once per run -----------------------------------------------------

    def reference(self, warm: Pass) -> list[Op]:
        """Every sweep digest must equal the digest of direct
        ``run_spec`` calls on the same cells."""
        t0 = clock()
        cycles = 0
        self.results = []
        for cell in self.cells:
            prof = KernelProfiler()
            self.results.append(run_spec(cell, profiler=prof))
            cycles += prof.cycles
        self.cycles = cycles
        per_mech = len(self.cells) // len(self.spec.mechanisms)
        want = series_digest({
            m: self.results[i * per_mech:(i + 1) * per_mech]
            for i, m in enumerate(self.spec.mechanisms)})
        bad = [op.kind for op in warm.ops if op.outcome != want]
        return [Op("reference", (clock() - t0) / 1e9, want,
                   f"sweep digest != run_spec digest on {bad}" if bad
                   else "")]

    def simulated(self, warm: Pass) -> tuple[float, float]:
        """gFLOV over Baseline across the grid's five gated fractions."""
        def mean(mechanism, attr):
            return fmean(getattr(r, attr) for r in self.results
                         if r.mechanism == mechanism)
        return (mean("gflov", "static_w") / mean("baseline", "static_w"),
                mean("gflov", "avg_latency") / mean("baseline",
                                                    "avg_latency"))

    # -- per-layer metrics (traced run) -----------------------------------

    def layers(self, trace, warm: Pass, rounds: int) -> dict[str, float]:
        out: dict[str, float] = dict(warm.counts)
        out["harness.warm_cell_us"] = (trace.median_ns("sweep.warm") / 1e3
                                       / len(self.cells))
        probe = trace.open("probe", None)
        out.update(self._ladder(trace, probe, rounds))
        out.update(self._store_layers(trace, probe, rounds))
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        for _ in range(5):
            trace.call("cli.import", probe, lambda: subprocess.run(
                [sys.executable, "-c", "import repro.cli"], check=True,
                env={"PYTHONPATH": src}, timeout=DEADLINE_S))
        trace.close(probe)
        out["cli.import_ms"] = trace.median_ns("cli.import") / 1e6
        return out

    def _ladder(self, trace, probe, rounds: int) -> dict[str, float]:
        """Each rung over the one below, on the same 20 cells."""
        bare = [wl_kernel.Cell(c.mechanism, c.rate, c.gated_fraction,
                               c.warmup, c.measure, c.seed)
                for c in self.cells]
        rungs = {
            "loop": lambda: [wl_kernel.run_cell(c) for c in bare],
            "run_spec": lambda: [run_spec(c) for c in self.cells],
            "serial": lambda: run_sweep_spec(
                self.spec, engine=self._engine(SerialExecutor())),
            "pool": lambda: run_sweep_spec(
                self.spec, engine=self._engine(PoolExecutor(2))),
            "batched": lambda: run_sweep_spec(
                self.spec, engine=self._engine(BatchedExecutor(8))),
        }
        for order in rotations(rungs, rounds):
            for name in order:
                trace.call(f"rung.{name}", probe, rungs[name])

        def rung(upper, lower):
            return (trace.median_ns(f"rung.{upper}")
                    / trace.median_ns(f"rung.{lower}"))
        return {"harness.run_spec_over_loop": rung("run_spec", "loop"),
                "harness.sweep_over_run_spec": rung("serial", "run_spec"),
                "harness.pool_over_serial": rung("pool", "serial"),
                "harness.batched_over_serial": rung("batched", "serial")}

    def _store_layers(self, trace, probe, rounds: int) -> dict[str, float]:
        """Direct calls into the spec and cache layers a warm call uses."""
        root = self.out_dir / "store-layers"
        cache = ResultCache(root)

        def expand():
            cells = self.spec.expand()
            for c in cells:
                SweepTask.from_spec(c)
            return cells

        def cache_key(cell):
            key = cell.cache_key()
            stable_digest(key)
            return key
        try:
            for _ in range(rounds):
                cells = trace.call("spec.expand", probe, expand)
                for cell, result in zip(cells, self.results):
                    key = trace.call("spec.cache_key", probe, cache_key, cell)
                    trace.call("harness.cache_put", probe, cache.put, key,
                               result)
                    if trace.call("harness.cache_get", probe, cache.get,
                                  key) is None:
                        raise RuntimeError("cache.get missed after put")
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return {"spec.expand_ms": trace.median_ns("spec.expand") / 1e6,
                "spec.cache_key_us": trace.median_ns("spec.cache_key") / 1e3,
                "harness.cache_put_ms":
                    trace.median_ns("harness.cache_put") / 1e6,
                "harness.cache_get_ms":
                    trace.median_ns("harness.cache_get") / 1e6}
