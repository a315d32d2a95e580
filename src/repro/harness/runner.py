"""Experiment runner: one synthetic-workload measurement per call.

Mirrors the paper's methodology (SS VI-B): warmup cycles excluded from
measurement, Bernoulli injection at a given flits/cycle/node rate, a
static fraction of cores power-gated by the OS, one of the four
mechanisms (baseline / rp / rflov / gflov) active.

Paper-length runs (10k warmup + 100k total) are used when the
``REPRO_FULL`` environment variable is set; the default is a shorter
run that preserves every qualitative trend at pure-Python speed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..gating.schedule import GatingSchedule, StaticGating
from ..noc.network import Network
from ..noc.snapshot import (SNAPSHOT_SCHEMA_VERSION, SnapshotError,
                            check_schema)
from ..noc.stats import LatencyBreakdown
from ..spec import ExperimentSpec
from ..traffic.generator import TrafficGenerator
from ..traffic.patterns import get_pattern


def paper_length() -> bool:
    """True when REPRO_FULL is set: run paper-length simulations."""
    return bool(os.environ.get("REPRO_FULL"))


def default_cycles() -> tuple[int, int]:
    """(warmup, measured) cycle counts."""
    if paper_length():
        return 10_000, 90_000
    return 2_000, 10_000


@dataclass
class ExperimentResult:
    """Everything a figure needs from one simulation run."""

    mechanism: str
    pattern: str
    rate: float
    gated_fraction: float
    warmup: int
    measured_cycles: int
    avg_latency: float
    avg_network_latency: float
    breakdown: LatencyBreakdown
    throughput: float
    packets: int
    escaped: int
    static_w: float
    dynamic_w: float
    total_w: float
    static_j: float
    dynamic_j: float
    total_j: float
    sleeping_routers: int
    gating_events: int
    power_states: dict[str, int] = field(default_factory=dict)
    samples: list[tuple[int, int]] = field(default_factory=list)
    #: path of the structured-event trace written for this run (None
    #: when tracing was off — the default, and the only mode the result
    #: cache ever stores)
    trace_path: str | None = None
    #: scalar metrics snapshot from an attached sampler ({} when off)
    metrics: dict[str, float] = field(default_factory=dict)


def run_spec(spec: ExperimentSpec, *,
             schedule: GatingSchedule | None = None,
             tracer=None, trace_path: str | None = None,
             trace_kinds=None,
             sampler=None, metrics_every: int | None = None,
             metrics_path: str | None = None,
             profiler=None,
             checkpoint_every: int | None = None,
             checkpoint_dir=None,
             resume_from=None,
             interrupt=None) -> ExperimentResult:
    """Execute an :class:`~repro.spec.ExperimentSpec`.

    The spec is the whole experiment: ``kernel`` selects the simulation
    kernel (default: the ``REPRO_KERNEL`` environment variable) and is
    deliberately *not* part of the cache key — results are bit-identical
    across kernels.  ``schedule`` (a live :class:`GatingSchedule`
    object) overrides both the spec's declarative ``schedule`` mapping
    and its ``gated_fraction``.

    Observability keywords are runtime attachments, not part of the
    spec or its cache key, and never affect simulation results (see
    :mod:`repro.obs` and ``docs/observability.md``): pass a ``tracer``
    (:class:`~repro.obs.Tracer`) to record structured events, or just a
    ``trace_path`` to have one created and its events written there as
    JSONL (``trace_kinds`` restricts the recorded event kinds).  Pass a
    ``sampler`` (:class:`~repro.obs.NetworkSampler`) or a
    ``metrics_every`` cadence to collect sampled metrics; the final
    scalar snapshot lands in :attr:`ExperimentResult.metrics`, and
    ``metrics_path`` additionally writes the sampled series to disk
    (CSV, or the full registry JSON for ``*.json`` paths).  A
    ``profiler`` (:class:`~repro.obs.KernelProfiler`) accumulates
    per-phase kernel wall time (``repro profile`` /
    :func:`repro.obs.profile_run` additionally wall-clock the kernel
    externally).

    Checkpointing: ``checkpoint_every=N`` writes an atomic snapshot of
    the complete simulation state into ``checkpoint_dir`` every N
    cycles (and removes it when the run completes).  ``resume_from``
    (a checkpoint file path or an already-loaded payload dict)
    continues such a run where it stopped; the golden contract —
    enforced by ``tests/test_checkpoint.py`` — is that *run-to-horizon*
    and *checkpoint + restore + run-remainder* produce identical
    results, on either kernel.  A missing or unreadable checkpoint
    file downgrades to a fresh run with a warning; a payload for a
    different spec or a stale schema raises
    :class:`~repro.noc.snapshot.SnapshotError`.  ``interrupt`` (a
    zero-arg callable polled at every checkpoint boundary) stops the
    run cooperatively: when it returns true, the just-written
    checkpoint is left in place and
    :class:`~repro.harness.checkpoint.CheckpointInterrupt` is raised —
    the service's preemption path.

    Specs with ``workload=`` set describe a full-system PARSEC run and
    return a :class:`~repro.fullsystem.FullSystemResult` instead.
    """
    if spec.workload is not None:
        from ..fullsystem import CmpSystem
        wargs = dict(spec.workload_args)
        system = CmpSystem(spec.workload, spec.mechanism,
                           instructions_per_core=wargs.get(
                               "instructions", 2000),
                           seed=spec.seed,
                           noc_overrides=dict(spec.overrides))
        return system.run(max_cycles=wargs.get("max_cycles", 400_000),
                          warmup=wargs.get("warmup", 0))

    spec = spec.resolved()
    warmup, measure = spec.warmup, spec.measure
    mechanism, pattern, rate = spec.mechanism, spec.pattern, spec.rate
    gated_fraction, seed = spec.gated_fraction, spec.seed
    keep_samples, drain = spec.keep_samples, spec.drain

    cfg = spec.config()
    net = Network(cfg, keep_samples=keep_samples, kernel=spec.kernel)
    if tracer is None and (trace_path is not None or trace_kinds is not None):
        from ..obs import Tracer
        tracer = Tracer(kinds=trace_kinds)
    if tracer is not None:
        net.attach_tracer(tracer)
    if sampler is None and (metrics_every is not None
                            or metrics_path is not None):
        from ..obs import DEFAULT_EVERY, NetworkSampler
        sampler = NetworkSampler(
            net, every=DEFAULT_EVERY if metrics_every is None
            else metrics_every)
    if sampler is not None:
        net.attach_metrics(sampler)
    if profiler is not None:
        net.attach_profiler(profiler)
    gen = TrafficGenerator(net, get_pattern(pattern, cfg,
                                            **dict(spec.pattern_kwargs)),
                           rate, seed=seed)

    # -- checkpoint / resume bookkeeping ----------------------------------
    payload = None
    if resume_from is not None:
        if isinstance(resume_from, dict):
            payload = resume_from
            check_schema(payload, kind="run_spec")
        else:
            from .checkpoint import load_checkpoint
            payload = load_checkpoint(resume_from, kind="run_spec")
    phase, done = "warmup", 0
    drain_steps = drain_idle = 0
    rep = None
    if payload is not None:
        from ..power.accounting import EnergyReport
        if payload.get("spec_key") != spec.cache_key():
            raise SnapshotError(
                "checkpoint was taken for a different experiment spec")
        net.restore_state(payload["net"])
        gen.restore_state(payload["traffic"])
        phase, done = payload["phase"], payload["done"]
        drain_steps = payload["drain_steps"]
        drain_idle = payload["drain_idle"]
        if payload["report"] is not None:
            rep = EnergyReport(**payload["report"])
    else:
        # restored runs install the snapshot's flattened schedule instead
        # (mechanism reactions to past changes live in component state,
        # so set_gating's on_schedule_change must not fire again)
        if schedule is None:
            schedule = spec.build_schedule(cfg)
        if schedule is None:
            schedule = StaticGating(cfg.num_routers, gated_fraction,
                                    seed=seed)
        net.set_gating(schedule)

    ckpt_path = None
    if checkpoint_every:
        from .checkpoint import (CheckpointInterrupt, checkpoint_path,
                                 write_checkpoint)
        ckpt_path = checkpoint_path(checkpoint_dir, spec)

        def save(phase: str, done: int, rep) -> None:
            write_checkpoint(ckpt_path, {
                "schema": SNAPSHOT_SCHEMA_VERSION,
                "kind": "run_spec",
                "spec": spec.to_dict(),
                "spec_key": spec.cache_key(),
                "phase": phase,
                "done": done,
                "drain_steps": drain_steps,
                "drain_idle": drain_idle,
                "report": None if rep is None else {
                    "cycles": rep.cycles, "static_j": rep.static_j,
                    "dynamic_j": rep.dynamic_j, "gating_j": rep.gating_j},
                "traffic": gen.snapshot_state(),
                "net": net.snapshot_state(),
            })
            if interrupt is not None and interrupt():
                raise CheckpointInterrupt(ckpt_path)

    # -- phase-tracked simulation loop ------------------------------------
    # equivalent to gen.run(warmup); begin_measurement(); gen.run(measure);
    # report(); drain — with checkpoints allowed between any two cycles
    if phase == "warmup":
        for i in range(done, warmup):
            gen.tick()
            net.step()
            if ckpt_path is not None and net.cycle % checkpoint_every == 0:
                save("warmup", i + 1, None)
        net.begin_measurement()
        phase, done = "measure", 0
    if phase == "measure":
        for i in range(done, measure):
            gen.tick()
            net.step()
            if ckpt_path is not None and net.cycle % checkpoint_every == 0:
                save("measure", i + 1, None)
        # snapshot energy for exactly the measured window, then let
        # in-flight measured packets finish (latency stats are keyed by
        # create time)
        rep = net.accountant.report(warmup + measure)
        phase = "drain"
    if drain and phase == "drain":
        while drain_steps < 20_000:
            net.step()
            drain_steps += 1
            drain_idle = drain_idle + 1 if net.network_drained() else 0
            if drain_idle > 8:
                break
            if ckpt_path is not None and net.cycle % checkpoint_every == 0:
                save("drain", 0, rep)
    if ckpt_path is not None:
        # completed: the checkpoint would resume into a finished run
        try:
            os.unlink(ckpt_path)
        except OSError:
            pass

    stats = net.stats
    power = rep.power_w(net.pcfg.cycle_time_s)
    states = net.power_states()
    if sampler is not None:
        # final flush: capture the trailing partial window the cadence
        # would otherwise drop (duck-typed so any on_cycle-compatible
        # object without close() still works)
        close = getattr(sampler, "close", None)
        if close is not None:
            close(net.cycle)
    if tracer is not None and trace_path is not None:
        from ..obs import write_jsonl
        write_jsonl(tracer.events(), trace_path)
    metrics = (dict(sampler.registry.scalar_snapshot())
               if sampler is not None else {})
    if sampler is not None and metrics_path is not None:
        from ..obs import write_metrics_csv, write_metrics_json
        if metrics_path.endswith(".json"):
            write_metrics_json(sampler.registry, metrics_path)
        else:
            write_metrics_csv(sampler.registry, metrics_path)
    return ExperimentResult(
        mechanism=mechanism,
        pattern=pattern,
        rate=rate,
        gated_fraction=gated_fraction,
        warmup=warmup,
        measured_cycles=measure,
        avg_latency=stats.avg_latency,
        avg_network_latency=stats.avg_network_latency,
        breakdown=stats.breakdown(cfg.packet_size),
        throughput=stats.throughput(measure, cfg.num_routers),
        packets=stats.measured_packets,
        escaped=stats.escaped_packets,
        static_w=power["static"],
        dynamic_w=power["dynamic"],
        total_w=power["total"],
        static_j=rep.static_j,
        dynamic_j=rep.dynamic_j + rep.gating_j,
        total_j=rep.total_j,
        sleeping_routers=states.get("SLEEP", 0),
        gating_events=net.accountant.gating_events,
        power_states=states,
        samples=list(stats.samples) if keep_samples else [],
        trace_path=trace_path,
        metrics=metrics,
    )
