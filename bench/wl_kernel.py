"""kernel_gated / kernel_loaded: the bare ``gen.tick(); net.step()`` loop.

Both workloads drive ``Network`` / ``TrafficGenerator`` / ``StaticGating``
directly, built in ``run_spec``'s order, for each of the five registry
mechanisms on the Table-I 8x8 mesh.  They differ only in the regime:

* ``kernel_gated``: 60 % of cores gated at 0.02 flits/cycle/node -- the
  paper's operating point.  Idle-skipping, the handshake control plane,
  fly-over hops and credit relay do the work; allocators are nearly idle.
* ``kernel_loaded``: nothing gated at 0.20 flits/cycle/node -- the same
  router code used the opposite way (evaluate and delivery are the step).

Networks start empty; the warm-up cycles of every cell are part of the
timed pass.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from statistics import fmean
from time import perf_counter_ns as clock

from repro import (NoCConfig, Network, StaticGating, TrafficGenerator,
                   get_pattern)
from repro.config import MECHANISMS
from repro.harness import run_spec
from repro.obs import DEFAULT_EVERY, KernelProfiler, Tracer
from repro.spec import ExperimentSpec

from measure import Op, Pass, median, rotations

#: cycles per timed slice of the loop (a tenth of it with --quick)
SLICE = 100
#: a cell slower than this is a failed operation
DEADLINE_S = 60.0

#: regime of each workload; ``layouts`` independent gating layouts (cell
#: seeds) per mechanism keep the work of a pass steady from seed to seed
SHAPES = {
    "kernel_gated": dict(rate=0.02, gated=0.6, warmup=500, measure=2500,
                         layouts=3),
    "kernel_loaded": dict(rate=0.20, gated=0.0, warmup=100, measure=400,
                          layouts=1),
}

COMMON_LAYERS = (
    "noc.build_ms", "traffic.tick_us",
    *(f"noc.step_us.{m}" for m in MECHANISMS),
    "core.handshake_us", "baselines.control_us", "noc.delivery_us",
    "noc.evaluate_us", "noc.py_calls_per_cycle", "noc.drain_cycles",
    "noc.packets_measured", "noc.escaped_packets", "core.sleeping_routers",
    "core.gating_events", "noc.dense_over_active")
GATED_LAYERS = (
    "obs.tracer_on_cost", "obs.sampler_on_cost", "obs.profiler_on_cost",
    "harness.checkpoint_on_cost", "noc.snapshot_ms", "noc.restore_ms")
LAYERS = {"kernel_gated": COMMON_LAYERS + GATED_LAYERS,
          "kernel_loaded": COMMON_LAYERS}


@dataclass(frozen=True)
class Cell:
    mechanism: str
    rate: float
    gated: float
    warmup: int
    measure: int
    seed: int
    slice: int = SLICE

    def spec(self) -> ExperimentSpec:
        return ExperimentSpec(mechanism=self.mechanism, rate=self.rate,
                              gated_fraction=self.gated, warmup=self.warmup,
                              measure=self.measure, seed=self.seed,
                              kernel="active")


def build(cell: Cell, kernel: str = "active"):
    """Network + generator + gating for one cell, in ``run_spec``'s order."""
    cfg = NoCConfig(mechanism=cell.mechanism, seed=cell.seed)
    net = Network(cfg, kernel=kernel)
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), cell.rate,
                           seed=cell.seed)
    net.set_gating(StaticGating(cfg.num_routers, cell.gated, seed=cell.seed))
    return net, gen


def _loop(tick, step, cycles: int, size: int, slices: list) -> None:
    """``cycles`` cycles, one clock read per slice of ``size`` cycles."""
    last = clock()
    done = 0
    while done < cycles:
        n = min(size, cycles - done)
        for _ in range(n):
            tick()
            step()
        now = clock()
        if n == size:
            slices.append((now - last) / 1e9)
        last = now
        done += n


def _loop_traced(tick, step, cycles: int, size: int, slices: list, trace,
                 parent, mechanism: str) -> None:
    """Same cycles with tick and step timed apart; the per-cycle times
    are aggregated into one ``traffic.tick`` and one ``noc.step`` span
    per slice."""
    done = 0
    while done < cycles:
        n = min(size, cycles - done)
        tick_ns = step_ns = 0
        start = clock()
        for _ in range(n):
            a = clock()
            tick()
            b = clock()
            step()
            step_ns += clock() - b
            tick_ns += b - a
        dur = clock() - start
        sl = trace.add("slice", parent, start, dur, cycles=n)
        trace.add("traffic.tick", sl, start, tick_ns, cycles=n)
        trace.add("noc.step", sl, start, step_ns, cycles=n,
                  mechanism=mechanism)
        if n == size:
            slices.append(dur / 1e9)
        done += n


def run_cell(cell: Cell, trace=None, parent=None, kernel: str = "active"):
    """Build, warm up, measure and drain one cell -> ``(Op, slices)``.

    With a trace, the build, every slice and the kernel's phase split
    (``KernelProfiler``) are recorded under one ``cell`` span.
    """
    slices: list[float] = []
    t0 = clock()
    if trace is not None:
        span = trace.open("cell", parent, mechanism=cell.mechanism)
        b = trace.open("noc.build", span)
    net, gen = build(cell, kernel)
    if trace is not None:
        trace.close(b)
        prof = KernelProfiler()
        net.attach_profiler(prof)

        def loop(n):
            _loop_traced(gen.tick, net.step, n, cell.slice, slices, trace,
                         span, cell.mechanism)
    else:
        def loop(n):
            _loop(gen.tick, net.step, n, cell.slice, slices)
    loop(cell.warmup)
    net.begin_measurement()
    loop(cell.measure)
    # energy for exactly the measured window, then let in-flight measured
    # packets finish: the same policy as run_spec
    rep = net.accountant.report(cell.warmup + cell.measure)
    idle = drain = 0
    while drain < 20_000 and idle <= 8:
        net.step()
        drain += 1
        idle = idle + 1 if net.network_drained() else 0
    seconds = (clock() - t0) / 1e9
    if trace is not None:
        trace.close(span, cycles=prof.cycles, **{
            f"{k}_ns": v for k, v in prof.phase_ns().items()})
    stats = net.stats
    outcome = {
        "cycles": net.cycle,
        "drain_cycles": drain,
        "packets": stats.measured_packets,
        "escaped": stats.escaped_packets,
        "avg_latency": stats.avg_latency,
        "static_w": rep.power_w(net.pcfg.cycle_time_s)["static"],
        "sleeping": net.power_states().get("SLEEP", 0),
        "gating_events": net.accountant.gating_events,
    }
    why = "" if net.network_drained() else "network not drained"
    return Op("cell", seconds, outcome, why), slices


class KernelWorkload:
    deadline_s = DEADLINE_S

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        shape = SHAPES[name]
        self.name = name
        self.layer_names = LAYERS[name]
        rng = random.Random(seed)
        div = 10 if quick else 1
        self.cells = [
            Cell(m, shape["rate"], shape["gated"], shape["warmup"] // div,
                 shape["measure"] // div, rng.randrange(2 ** 31), SLICE // div)
            for _ in range(1 if quick else shape["layouts"])
            for m in MECHANISMS]
        self.out_dir = None

    def boot(self, out_dir) -> None:
        self.out_dir = out_dir

    def close(self) -> None:
        pass

    def run_pass(self, trace=None) -> Pass:
        ops, slices = [], []
        t0 = clock()
        root = None if trace is None else trace.open("pass", None)
        for cell in self.cells:
            op, sl = run_cell(cell, trace, root)
            ops.append(op)
            slices += sl
        if trace is not None:
            trace.close(root)
        seconds = (clock() - t0) / 1e9
        counts = {
            "noc.drain_cycles": sum(o.outcome["drain_cycles"] for o in ops),
            "noc.packets_measured": sum(o.outcome["packets"] for o in ops),
            "noc.escaped_packets": sum(o.outcome["escaped"] for o in ops),
            "core.sleeping_routers": sum(o.outcome["sleeping"] for o in ops),
            "core.gating_events": sum(o.outcome["gating_events"]
                                      for o in ops),
        }
        return Pass(ops, seconds, sum(o.outcome["cycles"] for o in ops),
                    slices, counts)

    # -- once per run -----------------------------------------------------

    def _first(self, mechanism: str) -> Cell:
        return next(c for c in self.cells if c.mechanism == mechanism)

    def reference(self, warm: Pass) -> list[Op]:
        """The bare loop must agree with ``run_spec`` on the same cell."""
        cell = self._first("gflov")
        t0 = clock()
        r = run_spec(cell.spec())
        got = warm.ops[self.cells.index(cell)].outcome
        want = {"packets": r.packets, "escaped": r.escaped,
                "avg_latency": r.avg_latency, "static_w": r.static_w,
                "sleeping": r.sleeping_routers,
                "gating_events": r.gating_events}
        diff = {k: (got[k], v) for k, v in want.items() if got[k] != v}
        return [Op("reference", (clock() - t0) / 1e9, want,
                   f"bare loop != run_spec: {diff}" if diff else "")]

    def simulated(self, warm: Pass) -> tuple[float, float]:
        """gFLOV over Baseline: static power and average packet latency."""
        def mean(mechanism, key):
            return fmean(op.outcome[key]
                         for op, c in zip(warm.ops, self.cells)
                         if c.mechanism == mechanism)
        return (mean("gflov", "static_w") / mean("baseline", "static_w"),
                mean("gflov", "avg_latency") / mean("baseline",
                                                    "avg_latency"))

    # -- per-layer metrics (traced run) -----------------------------------

    def layers(self, trace, warm: Pass, rounds: int) -> dict[str, float]:
        out: dict[str, float] = dict(warm.counts)
        out["noc.build_ms"] = median(
            d for d, _ in trace.spans("noc.build")) / 1e6
        out["traffic.tick_us"] = median(
            d / a["cycles"] for d, a in trace.spans("traffic.tick")) / 1e3
        steps = trace.spans("noc.step")
        for m in MECHANISMS:
            out[f"noc.step_us.{m}"] = median(
                d / a["cycles"] for d, a in steps
                if a["mechanism"] == m) / 1e3
        cells = [a for _, a in trace.spans("cell")]

        def phase(name, mechanisms=MECHANISMS):
            return median(a[f"{name}_ns"] / a["cycles"] for a in cells
                          if a["mechanism"] in mechanisms) / 1e3
        out["core.handshake_us"] = phase("handshake", ("rflov", "gflov"))
        out["baselines.control_us"] = phase("handshake", ("rp", "nord"))
        out["noc.delivery_us"] = phase("delivery")
        out["noc.evaluate_us"] = phase("evaluate")
        out["noc.py_calls_per_cycle"] = self._py_calls()
        gflov = self._first("gflov")
        probe = trace.open("probe", None)
        for order in rotations(("active", "dense"), rounds):
            for kernel in order:
                trace.call(f"kernel.{kernel}", probe, run_cell, gflov, None,
                           None, kernel)
        out["noc.dense_over_active"] = (trace.median_ns("kernel.dense")
                                        / trace.median_ns("kernel.active"))
        if self.name == "kernel_gated":
            out.update(self._probe_costs(gflov, trace, probe, rounds))
            out.update(self._snapshot_restore(gflov, trace, probe, rounds))
        trace.close(probe)
        return out

    def _py_calls(self) -> float:
        """Python + C calls per cycle over warmed cycles, mean over the
        five mechanisms (exact for a seed)."""
        per = []
        for cell in self.cells[:len(MECHANISMS)]:
            net, gen = build(cell)
            gen.run(cell.warmup)
            n = min(500, cell.measure)
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                if event == "call" or event == "c_call":
                    calls += 1
            tick, step = gen.tick, net.step
            sys.setprofile(count)
            try:
                for _ in range(n):
                    tick()
                    step()
            finally:
                sys.setprofile(None)
            per.append(calls / n)
        return fmean(per)

    def _probe_costs(self, cell: Cell, trace, probe,
                     rounds: int) -> dict[str, float]:
        """Each probe as with/without - 1 on the gFLOV cell, via run_spec."""
        spec = cell.spec()
        every = max(50, (cell.warmup + cell.measure) // 6)
        variants = {
            "off": lambda: {},
            "obs.tracer_on_cost": lambda: {"tracer": Tracer()},
            "obs.sampler_on_cost": lambda: {"metrics_every": DEFAULT_EVERY},
            "obs.profiler_on_cost": lambda: {"profiler": KernelProfiler()},
            "harness.checkpoint_on_cost": lambda: {
                "checkpoint_every": every,
                "checkpoint_dir": self.out_dir / "ckpt"},
        }
        for order in rotations(variants, rounds):
            for name in order:
                trace.call(name, probe,
                           lambda: run_spec(spec, **variants[name]()))
        off = trace.median_ns("off")
        return {name: trace.median_ns(name) / off - 1.0
                for name in variants if name != "off"}

    def _snapshot_restore(self, cell: Cell, trace, probe,
                          rounds: int) -> dict[str, float]:
        net, gen = build(cell)
        gen.run(cell.warmup + cell.measure // 2)
        for _ in range(rounds):
            data = trace.call("noc.snapshot", probe, net.snapshot_state)
            fresh, _ = build(cell)
            trace.call("noc.restore", probe, fresh.restore_state, data)
        return {"noc.snapshot_ms": trace.median_ns("noc.snapshot") / 1e6,
                "noc.restore_ms": trace.median_ns("noc.restore") / 1e6}
