"""Kernel phase profiler: where does a simulated cycle's wall time go?

The simulation kernels (:mod:`repro.noc.network`) execute four phases
per cycle — the handshake/control plane (schedule changes +
``mech.step``), credit/flit **delivery**, the router **evaluate** scan,
and the observability **sampler** tick.  A :class:`KernelProfiler`
attaches to a :class:`~repro.noc.network.Network` and accumulates
``perf_counter_ns`` deltas at each phase boundary, for either kernel.

Overhead contract (same as the tracer/sampler hooks from PR 3):

* **Detached = free.**  Each kernel step reads ``self._profiler`` once;
  when it is ``None`` every phase boundary is a single ``is not None``
  test and nothing else.  The ``kernel_*`` workloads of ``bench/`` run
  unprofiled and pin this (``obs.profiler_on_cost`` is the attached
  side).
* **Attached = honest.**  Timestamps are taken *at* the phase
  boundaries, so each phase's total includes exactly its own work; the
  per-step total (``step_ns``) is measured from the same first/last
  timestamps, making ``accounted_ns / step_ns`` ~1 by construction.
  For an *external* ground truth, :func:`profile_run` additionally
  wall-clocks every ``Network.step`` call from outside and reports
  phase coverage against that independent total — the acceptance
  metric ``repro profile`` prints.

Profiling is a measurement of the *host*, not the simulation:
attaching a profiler never changes simulation results (it only reads
clocks), and the numbers vary run to run like any wall-time benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any

#: phase names, in per-cycle execution order
PHASES = ("handshake", "delivery", "evaluate", "sampler")

#: JSON schema version of :meth:`ProfileResult.as_dict`
PROFILE_SCHEMA = 1


class KernelProfiler:
    """Accumulates per-phase ``perf_counter_ns`` time for a kernel.

    Attach with :meth:`repro.noc.network.Network.attach_profiler`; the
    kernels add boundary deltas into the ``t_*`` slots directly (plain
    attribute adds — no method call on the hot path).
    """

    __slots__ = ("t_handshake", "t_delivery", "t_evaluate", "t_sampler",
                 "step_ns", "cycles")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all accumulators."""
        self.t_handshake = 0
        self.t_delivery = 0
        self.t_evaluate = 0
        self.t_sampler = 0
        #: total in-step time (first to last boundary timestamp)
        self.step_ns = 0
        #: number of profiled kernel steps
        self.cycles = 0

    # -- reductions ----------------------------------------------------------

    def phase_ns(self) -> dict[str, int]:
        """Nanoseconds per phase, in execution order."""
        return {
            "handshake": self.t_handshake,
            "delivery": self.t_delivery,
            "evaluate": self.t_evaluate,
            "sampler": self.t_sampler,
        }

    @property
    def accounted_ns(self) -> int:
        """Sum of the four phase totals."""
        return (self.t_handshake + self.t_delivery
                + self.t_evaluate + self.t_sampler)

    def as_dict(self) -> dict[str, Any]:
        return {
            "cycles": self.cycles,
            "phase_ns": self.phase_ns(),
            "accounted_ns": self.accounted_ns,
            "step_ns": self.step_ns,
        }


@dataclass
class ProfileResult:
    """One profiled run: phase totals + an external wall-clock baseline.

    ``wall_ns`` is measured *around* every ``Network.step`` call by
    :func:`profile_run` (independent clock reads from outside the
    kernel), so ``coverage`` — accounted phase time over external wall
    time — genuinely asks "did the phase timers see the whole kernel?"
    rather than comparing the profiler against itself.
    """

    mechanism: str
    pattern: str
    rate: float
    gated_fraction: float
    kernel: str
    warmup: int
    measure: int
    seed: int
    #: cycles actually profiled (warmup + measure + drain)
    cycles: int
    #: external wall time of all ``Network.step`` calls, ns
    wall_ns: int
    #: per-phase totals, ns (from the in-kernel boundary timestamps)
    phase_ns: dict[str, int]
    #: in-kernel step total, ns (first-to-last boundary per step)
    step_ns: int
    #: simulation outcome (profiled runs produce normal results)
    avg_latency: float
    packets: int

    extras: dict[str, float] = field(default_factory=dict)

    @property
    def accounted_ns(self) -> int:
        return sum(self.phase_ns.values())

    @property
    def coverage(self) -> float:
        """Accounted phase time / external kernel wall time."""
        return self.accounted_ns / self.wall_ns if self.wall_ns else 0.0

    def phase_shares(self) -> dict[str, float]:
        """Each phase's share of the accounted time."""
        total = self.accounted_ns or 1
        return {name: ns / total for name, ns in self.phase_ns.items()}

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA,
            "mechanism": self.mechanism,
            "pattern": self.pattern,
            "rate": self.rate,
            "gated_fraction": self.gated_fraction,
            "kernel": self.kernel,
            "warmup": self.warmup,
            "measure": self.measure,
            "seed": self.seed,
            "cycles": self.cycles,
            "wall_ns": self.wall_ns,
            "phase_ns": dict(self.phase_ns),
            "step_ns": self.step_ns,
            "accounted_ns": self.accounted_ns,
            "coverage": self.coverage,
            "avg_latency": self.avg_latency,
            "packets": self.packets,
            "extras": dict(self.extras),
        }

    def render(self) -> str:
        """Human-readable phase table."""
        lines = [
            f"kernel phase profile — {self.mechanism} @ rate {self.rate}, "
            f"gated {self.gated_fraction:.0%}, kernel {self.kernel}",
            f"  cycles profiled    {self.cycles}",
            f"  kernel wall        {self.wall_ns / 1e6:.2f} ms "
            f"({self.wall_ns / max(self.cycles, 1):.0f} ns/cycle)",
        ]
        shares = self.phase_shares()
        c = max(self.cycles, 1)
        for name in PHASES:
            ns = self.phase_ns.get(name, 0)
            bar = "#" * round(shares.get(name, 0.0) * 40)
            lines.append(f"  {name:<10} {ns / 1e6:9.2f} ms "
                         f"{shares.get(name, 0.0):6.1%} "
                         f"{ns / c:7.0f} ns/cyc  {bar}")
        lines.append(f"  accounted          {self.accounted_ns / 1e6:.2f} ms "
                     f"= {self.coverage:.1%} of kernel wall")
        lines.append(f"  sim outcome        {self.packets} packets, "
                     f"avg latency {self.avg_latency:.2f} cycles")
        return "\n".join(lines)


def attach_profiler(net, profiler: KernelProfiler | None = None
                    ) -> KernelProfiler:
    """Create (if needed) and attach a profiler to ``net``; returns it.

    Convenience wrapper over
    :meth:`~repro.noc.network.Network.attach_profiler`.
    """
    if profiler is None:
        profiler = KernelProfiler()
    net.attach_profiler(profiler)
    return profiler


def profile_run(spec, *, metrics_every: int | None = None) -> ProfileResult:
    """Run one :class:`~repro.spec.ExperimentSpec` with the phase
    profiler attached.

    Same network, gating, traffic and drain behaviour as
    :func:`repro.harness.run_spec`, but drives the cycle loop itself so
    every ``Network.step`` call can be wall-clocked from *outside* the
    kernel — the external baseline the ``coverage`` metric is computed
    against.  Simulation results are identical to an unprofiled run.
    """
    from ..gating.schedule import StaticGating
    from ..noc.network import Network
    from ..traffic.generator import TrafficGenerator
    from ..traffic.patterns import get_pattern

    spec = spec.resolved()
    warmup, measure = spec.warmup, spec.measure
    cfg = spec.config()
    net = Network(cfg, kernel=spec.kernel)
    prof = attach_profiler(net)
    if metrics_every is not None:
        from .sampler import NetworkSampler
        net.attach_metrics(NetworkSampler(net, every=metrics_every))
    schedule = spec.build_schedule(cfg)
    if schedule is None:
        schedule = StaticGating(cfg.num_routers, spec.gated_fraction,
                                seed=spec.seed)
    net.set_gating(schedule)
    gen = TrafficGenerator(net, get_pattern(spec.pattern, cfg,
                                            **dict(spec.pattern_kwargs)),
                           spec.rate, seed=spec.seed)

    wall_ns = 0
    tick = gen.tick
    step = net.step
    clock = perf_counter_ns
    for _ in range(warmup):
        tick()
        t0 = clock()
        step()
        wall_ns += clock() - t0
    net.begin_measurement()
    for _ in range(measure):
        tick()
        t0 = clock()
        step()
        wall_ns += clock() - t0
    # drain in-flight measured packets (same policy as run_spec)
    idle = 0
    for _ in range(20_000 if spec.drain else 0):
        t0 = clock()
        step()
        wall_ns += clock() - t0
        idle = idle + 1 if net.network_drained() else 0
        if idle > 8:
            break

    return ProfileResult(
        mechanism=spec.mechanism,
        pattern=spec.pattern,
        rate=spec.rate,
        gated_fraction=spec.gated_fraction,
        kernel=net.kernel,
        warmup=warmup,
        measure=measure,
        seed=spec.seed,
        cycles=prof.cycles,
        wall_ns=wall_ns,
        phase_ns=prof.phase_ns(),
        step_ns=prof.step_ns,
        avg_latency=net.stats.avg_latency,
        packets=net.stats.measured_packets,
    )
