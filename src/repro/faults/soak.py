"""Randomized fault soaks with quiescence checking and liveness triage.

A soak runs a mechanism under traffic + gating churn while a
:class:`~repro.faults.injector.FaultInjector` perturbs the handshake
plane, then *heals* the fabric (``injector.stop``) and demands full
recovery: the network must drain to quiescence within a bounded number
of cycles and satisfy the structural invariants from
``noc/validation.py``.  A soak that fails to drain produces a
:func:`diagnose_liveness` report naming exactly what is stuck, so a
failing ``(spec)`` is a complete, replayable bug report (everything is
seeded — see ``docs/testing.md``).

:class:`FaultSoakSpec` is a frozen, picklable dataclass and
:func:`run_fault_soak` a module-level function, so soaks fan out
directly through :meth:`repro.harness.parallel.PoolExecutor.map`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import NoCConfig
from ..gating.schedule import StaticGating, random_epochs
from ..noc.network import Network
from ..noc.validation import (credit_conservation_violations,
                              derived_state_violations,
                              pointer_coherence_violations, quiescent,
                              wormhole_violations)
from ..traffic.generator import TrafficGenerator
from ..traffic.patterns import get_pattern
from .injector import FaultInjector, FaultPlan

#: mechanisms that maintain logical pointers (pointer coherence applies)
_POINTERED = frozenset({"rflov", "gflov"})


@dataclass(frozen=True)
class FaultSoakSpec:
    """One fault soak: everything needed to replay it exactly."""

    mechanism: str = "gflov"
    seed: int = 0
    width: int = 4
    height: int = 4
    kernel: str = "active"
    #: traffic injection rate (flits/node/cycle) during the burst phase
    rate: float = 0.05
    #: cycles of faulty traffic before the heal + drain phase
    burst_cycles: int = 2500
    #: fraction of cores the OS schedule gates (static) — ignored when
    #: ``epochs`` is set
    gated_fraction: float = 0.5
    #: number of random gating epochs (0 = static schedule); epoch churn
    #: forces wakeups and fresh drains while faults are live
    epochs: int = 0
    #: post-heal budget for reaching quiescence.  Generous: a wakeup
    #: whose handshake was eaten retries only after the 1500-cycle wake
    #: watchdog expires.
    drain_cap: int = 20000
    plan: FaultPlan = field(default_factory=FaultPlan)


@dataclass(frozen=True)
class FaultSoakReport:
    """Outcome of one soak (picklable; returned by worker processes)."""

    spec: FaultSoakSpec
    #: network reached full quiescence within ``drain_cap``
    quiescent: bool
    #: cycle count when the run ended
    cycles: int
    packets_injected: int
    packets_ejected: int
    #: packets legitimately dropped at reconfiguration (Router Parking
    #: flushes traffic of migrated threads); every injected packet must
    #: be either ejected or counted here
    packets_dropped: int
    #: injected-fault tally by action name
    faults: dict
    #: structural invariant violations found after quiescence (must be
    #: empty for a passing soak; only populated when quiescent)
    violations: tuple
    #: human-readable liveness triage (populated when not quiescent)
    diagnosis: tuple

    @property
    def ok(self) -> bool:
        return self.quiescent and not self.violations


def diagnose_liveness(net: Network) -> tuple[str, ...]:
    """Name everything that keeps the network from quiescence.

    Used when a soak exhausts its drain budget: the output pinpoints the
    stuck entity (a router wedged mid-FSM, an undelivered handshake
    message, flits parked behind a gated port) rather than leaving a
    bare timeout.
    """
    out: list[str] = []
    if net._flits:
        out.append(f"{net._flits} flits still inside the fabric")
    pend = {r.node: r.ni.pending_flits for r in net.routers
            if r.ni.pending_flits}
    if pend:
        out.append(f"NI queues pending: {pend}")
    stuck = {r.node: r.state.name for r in net.routers
             if r.state.name in ("DRAINING", "WAKEUP")}
    if stuck:
        out.append(f"routers wedged mid-transition: {stuck}")
    hsc = getattr(net.mech, "hsc", None)
    if hsc is not None:
        if hsc._heap:
            heads = sorted(hsc._heap)[:5]
            out.append(f"{len(hsc._heap)} handshake messages in flight; "
                       f"earliest {[(a, d, m.kind) for a, _, d, m in heads]}")
        if hsc._drainers:
            out.append(f"drains pending: {sorted(hsc._drainers)}")
        if hsc._wakers:
            out.append(f"wakeups pending: {sorted(hsc._wakers)}")
        if hsc._want_wake:
            out.append(f"want_wake queued: {sorted(hsc._want_wake)}")
        if hsc._obligations:
            out.append(f"obligations open: {sorted(hsc._obligations)}")
    ring = getattr(net.mech, "ring", None)
    if ring is not None and len(ring):
        out.append(f"{len(ring)} packets riding the bypass ring")
    flt = net._faults
    if flt is not None and flt.dead_links:
        out.append(f"links still dead: {flt.dead_links}")
    if not out:
        out.append("quiescent() is False but nothing visibly pending "
                   "(inconsistent bookkeeping?)")
    return tuple(out)


def _structural_violations(net: Network, mechanism: str) -> tuple:
    vio: list[tuple] = []
    vio += [("credit",) + v for v in credit_conservation_violations(net)]
    vio += [("wormhole",) + v for v in wormhole_violations(net)]
    vio += [("derived",) + v for v in derived_state_violations(net)]
    if mechanism in _POINTERED:
        vio += [("pointer",) + v for v in pointer_coherence_violations(net)]
    return tuple(vio)


def run_fault_soak(spec: FaultSoakSpec) -> FaultSoakReport:
    """Execute one soak (module-level: picklable for ParallelSweep)."""
    cfg = NoCConfig(mechanism=spec.mechanism, width=spec.width,
                    height=spec.height, seed=spec.seed)
    net = Network(cfg, kernel=spec.kernel)
    injector = FaultInjector(spec.plan)
    net.attach_faults(injector)
    if spec.epochs:
        sched = random_epochs(
            cfg.num_routers, (spec.gated_fraction, 0.2, spec.gated_fraction),
            (400, 900), seed=spec.seed)
    else:
        sched = StaticGating(cfg.num_routers, spec.gated_fraction,
                             seed=spec.seed)
    net.set_gating(sched)
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), spec.rate,
                           seed=spec.seed)
    gen.run(spec.burst_cycles)

    # heal: no new faults, outages end, then the protocol must recover
    injector.stop(net.cycle)
    deadline = net.cycle + spec.drain_cap
    while net.cycle < deadline and not quiescent(net):
        net.step(50)

    q = quiescent(net)
    violations = _structural_violations(net, spec.mechanism) if q else ()
    diagnosis = () if q else diagnose_liveness(net)
    s = net.stats
    return FaultSoakReport(
        spec=spec, quiescent=q, cycles=net.cycle,
        packets_injected=s.packets_injected,
        packets_ejected=s.packets_ejected,
        packets_dropped=s.packets_dropped,
        faults=injector.report(), violations=violations,
        diagnosis=diagnosis)


def run_fault_soak_batch(specs) -> list[FaultSoakReport]:
    """Run several soaks as one lockstep replica batch.

    Fans a fault campaign (seeds x plans x schedules) across the
    replicas of a single :class:`~repro.noc.batched.ReplicaBatch`
    invocation; each replica produces a :class:`FaultSoakReport`
    bit-identical to a solo :func:`run_fault_soak` of its spec.

    Supported subset (mirrors what the batch kernel can isolate):

    * every replica carries its **own** :class:`FaultInjector` built
      from its spec's plan — injectors bind to exactly one network
      (``FaultInjector.bind`` rejects sharing), and the per-cycle fault
      hook runs in the replica's control-plane slot;
    * mixed ``burst_cycles``/``drain_cap`` horizons are fine — a
      replica that heals early retires from the batch without
      perturbing its siblings;
    * ``kernel`` must not be ``"dense"`` (dense networks bind no timing
      wheels and cannot join a batch).
    """
    from ..noc.batched import ReplicaBatch
    from ..spec import SpecError

    batch = ReplicaBatch()
    injectors: list[FaultInjector] = []
    nets: list[Network] = []
    for spec in specs:
        if spec.kernel == "dense":
            raise SpecError("dense-kernel soaks cannot be batched; "
                            "run them through run_fault_soak")
        cfg = NoCConfig(mechanism=spec.mechanism, width=spec.width,
                        height=spec.height, seed=spec.seed)
        net = Network(cfg, kernel="batched")
        injector = FaultInjector(spec.plan)
        net.attach_faults(injector)
        if spec.epochs:
            sched = random_epochs(
                cfg.num_routers,
                (spec.gated_fraction, 0.2, spec.gated_fraction),
                (400, 900), seed=spec.seed)
        else:
            sched = StaticGating(cfg.num_routers, spec.gated_fraction,
                                 seed=spec.seed)
        net.set_gating(sched)
        gen = TrafficGenerator(net, get_pattern("uniform", cfg), spec.rate,
                               seed=spec.seed)
        batch.add(net, gen)
        injectors.append(injector)
        nets.append(net)

    n = len(nets)
    reports: list[FaultSoakReport | None] = [None] * n
    tick = [True] * n

    def finish(i: int) -> None:
        spec, net = specs[i], nets[i]
        q = quiescent(net)
        s = net.stats
        reports[i] = FaultSoakReport(
            spec=spec, quiescent=q, cycles=net.cycle,
            packets_injected=s.packets_injected,
            packets_ejected=s.packets_ejected,
            packets_dropped=s.packets_dropped,
            faults=injectors[i].report(),
            violations=(_structural_violations(net, spec.mechanism)
                        if q else ()),
            diagnosis=() if q else diagnose_liveness(net))
        batch.retire(i)

    # mirror the solo lifecycle per replica: burst with traffic, then
    # ``injector.stop`` at exactly ``burst_cycles``, then quiescence
    # checks every 50 cycles (the solo drain loop's ``step(50)`` chunk)
    # until healed or past ``burst_cycles + drain_cap``.
    while batch.live_count:
        t = batch.cycle
        for i in range(n):
            if reports[i] is not None:
                continue
            burst = specs[i].burst_cycles
            if t < burst:
                continue
            if t == burst:
                injectors[i].stop(t)
                tick[i] = False
            if (t - burst) % 50 == 0:
                if t >= burst + specs[i].drain_cap or quiescent(nets[i]):
                    finish(i)
        if batch.live_count:
            batch.step_cycle(tick)
    return reports  # type: ignore[return-value]
