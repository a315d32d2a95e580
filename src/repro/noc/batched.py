"""Batched replica execution: step *B* independent cells in one loop.

Every figure in the paper is a grid of *replicas* — the same topology
stepped under different seeds, injection rates and gated fractions.
:class:`ReplicaBatch` executes B such replicas in lockstep inside a
single kernel invocation:

* **Shared timing wheels.**  All replicas' channels register into one
  pair of batch-owned wheels (``dict[cycle, list[channel]]``); each
  channel is tagged with its replica index (``owner``), so one bucket
  pop per cycle services the whole batch and registrations left behind
  by retired replicas are dropped on sight instead of delivered.
* **Struct-of-arrays bookkeeping.**  The spec runner keeps the
  replica-axis lifecycle state (warmup boundary, measure horizon,
  drain-idle streaks, liveness) in numpy arrays, so per-cycle phase
  transitions are vectorized comparisons rather than per-replica
  Python branching.
* **Per-replica dispatch for the data plane.**  Phase profiles
  (``repro profile``) show the evaluation phase dominates the active
  kernel (50–80% of step time), with traffic injection and the
  handshake control plane splitting most of the rest.  All three are
  irreducibly sequential per replica — traffic draws a per-replica
  Python RNG stream and the router pipeline is branchy wormhole logic
  — so the batch kernel dispatches them into the *exact* hot paths the
  ``active`` kernel uses.  That is what makes the digest-equality
  contract cheap to keep: per replica, the batch executes the same
  bytecode on the same state in the same order.

**Digest-equality contract.**  Each replica in a batch produces an
:class:`~repro.harness.runner.ExperimentResult` bit-identical to a solo
:func:`~repro.harness.runner.run_spec` of its spec under the ``active``
(and therefore ``dense``) kernel — ``tests/test_kernel_equivalence.py``
asserts ``stable_digest`` equality per cell.  Replicas share no
simulation state: the shared wheels partition by channel ownership, and
cross-replica interleaving within a cycle cannot reorder any
within-replica effect (deliveries only mutate the owning replica's
routers).

**Fault injection.**  Each replica may carry its *own*
:class:`~repro.faults.FaultInjector` (bound via ``net.attach_faults``
before :meth:`ReplicaBatch.add`); the per-cycle fault hook runs in the
replica's control-plane slot exactly as under ``active``.  One injector
cannot be shared across replicas — ``FaultInjector.bind`` already
rejects rebinding to a different network.  Observability attachments
are narrower than ``run_spec``: per-replica samplers (``_obs_tick``)
fire normally, but tracers/profilers are per-network as usual and there
is no batch-level profiler.

The ``batched`` KERNELS entry aliases the ``active`` step for a solo
``Network`` (B = 1 degenerates to the activity-driven kernel), so
``spec.kernel = "batched"`` / ``REPRO_KERNEL=batched`` work everywhere
a kernel name is accepted; batching across replicas is orchestrated by
:func:`run_spec_batch` and :class:`repro.harness.parallel.BatchedExecutor`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..gating.schedule import GatingSchedule, StaticGating
from ..spec import ExperimentSpec, SpecError
from ..traffic.generator import TrafficGenerator
from ..traffic.patterns import get_pattern
from .network import Network, deliver_due
from .snapshot import (SNAPSHOT_SCHEMA_VERSION, SnapshotError, check_schema,
                       require)

if TYPE_CHECKING:  # pragma: no cover
    from ..harness.runner import ExperimentResult

#: drain-phase caps mirrored from ``run_spec`` (cycle-accuracy contract:
#: the batch runner must retire a replica at exactly the cycle the solo
#: runner would stop stepping it)
DRAIN_MAX_STEPS = 20_000
DRAIN_IDLE_STREAK = 8


class ReplicaBatch:
    """Lockstep engine stepping B independent replica networks.

    Members are added at cycle 0 and advance together; the caller
    drives lifecycle (who ticks traffic, who retires) while the engine
    owns the per-cycle phase order and the shared timing wheels.  The
    phase contract per replica and cycle is identical to
    ``Network._step_active``: control plane (schedule change, mechanism
    step, fault hook) -> credit delivery -> flit delivery -> active
    router evaluation.
    """

    def __init__(self) -> None:
        self.cycle = 0
        self._nets: list[Network] = []
        self._gens: list[TrafficGenerator | None] = []
        #: python list on the hot path (scalar indexing beats numpy here)
        self._retired: list[bool] = []
        self._live: list[int] = []
        #: shared wheels: arrival cycle -> owner-tagged channels due then
        self._flit_wheel: dict[int, list] = {}
        self._credit_wheel: dict[int, list] = {}

    # -- membership -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nets)

    @property
    def live_count(self) -> int:
        return len(self._live)

    def add(self, net: Network, gen: TrafficGenerator | None = None) -> int:
        """Adopt ``net`` (and its traffic source) as the next replica.

        Rebinds every wired channel into the batch's shared wheels and
        tags it with the replica index.  Must happen before any
        stepping — all replicas advance from cycle 0 together.
        """
        if net.kernel == "dense":
            raise SpecError("dense-kernel networks bind no timing wheels "
                            "and cannot join a ReplicaBatch")
        if net.cycle != 0 or self.cycle != 0:
            raise SpecError("replicas must join a ReplicaBatch at cycle 0")
        idx = len(self._nets)
        fw, cw = self._flit_wheel, self._credit_wheel
        for own_wheel, shared in ((net._flit_wheel, fw),
                                  (net._credit_wheel, cw)):
            for cyc, bucket in own_wheel.items():
                shared.setdefault(cyc, []).extend(bucket)
        net._flit_wheel = fw
        net._credit_wheel = cw
        for r in net.routers:
            for ch in r.out_flit.values():
                ch.wheel = fw
                ch.owner = idx
            for ch in r.out_credit.values():
                ch.wheel = cw
                ch.owner = idx
        self._nets.append(net)
        self._gens.append(gen)
        self._retired.append(False)
        self._live.append(idx)
        return idx

    def retire(self, idx: int) -> None:
        """Stop stepping replica ``idx``; its leftover wheel
        registrations are dropped (never delivered) when their buckets
        come due, so siblings see no perturbation."""
        if not self._retired[idx]:
            self._retired[idx] = True
            self._live.remove(idx)

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self) -> dict:
        """Per-replica network + traffic snapshots (retired -> None).

        Shared wheels are derived state, same as in the solo kernels:
        member restores re-file every in-flight channel, so they are
        never serialized."""
        return {
            "cycle": self.cycle,
            "nets": [None if self._retired[i] else net.snapshot_state()
                     for i, net in enumerate(self._nets)],
            "traffic": [None if self._retired[i] or gen is None
                        else gen.snapshot_state()
                        for i, gen in enumerate(self._gens)],
        }

    def restore_state(self, data: dict) -> None:
        """Rebuild a mid-run batch onto freshly :meth:`add`-ed members.

        The shared wheels are cleared once here; each live member then
        restores with ``clear_wheels=False`` and reschedules its
        channels back into them (restores mutate channels in place, so
        the owner tags stamped by :meth:`add` survive).  A ``None``
        entry marks a replica that had already retired — its network is
        left at cycle 0 and never stepped again.
        """
        require(len(data["nets"]) == len(self._nets),
                f"snapshot holds {len(data['nets'])} replicas, "
                f"batch has {len(self._nets)}")
        self._flit_wheel.clear()
        self._credit_wheel.clear()
        for i, net_state in enumerate(data["nets"]):
            if net_state is None:
                self.retire(i)
            else:
                self._nets[i].restore_state(net_state, clear_wheels=False)
                gen_state = data["traffic"][i]
                if gen_state is not None:
                    self._gens[i].restore_state(gen_state)
        self.cycle = data["cycle"]

    # -- lockstep cycle -------------------------------------------------------

    def step_cycle(self, tick: Sequence[bool]) -> None:
        """Advance every live replica by one cycle.

        ``tick[i]`` selects which replicas inject traffic this cycle
        (warmup/measure phase); drain-phase replicas step without
        ticking, mirroring ``run_spec``'s drain loop.
        """
        now = self.cycle
        nets = self._nets
        gens = self._gens
        live = self._live
        retired = self._retired

        # P1: per-replica control plane, ascending replica order.  Each
        # replica's slot runs tick -> schedule change -> mechanism step
        # -> fault hook, exactly the solo per-cycle prefix.
        for i in live:
            net = nets[i]
            if tick[i]:
                gens[i].tick()
            if net._cp_idx < len(net._change_points):
                net._fire_schedule_changes(now)
            net.mech.step(now)
            flt = net._faults
            if flt is not None:
                flt.on_cycle(now)

        # P2/P3: one shared bucket pop serves the whole batch, minus the
        # registrations of retired replicas.  Within one replica, bucket
        # order equals that replica's solo registration order (appends
        # preserve each owner's subsequence), so per-replica delivery
        # order — the only order that can matter — is unchanged.
        deliver_due(self._credit_wheel, now, credits=True, retired=retired)
        deliver_due(self._flit_wheel, now, credits=False, retired=retired)

        # P4: per-replica active-router scan (verbatim ``_step_active``).
        for i in live:
            net = nets[i]
            routers = net.routers
            j = 0
            while True:
                rem = net._active_mask >> j
                if not rem:
                    break
                j += (rem & -rem).bit_length() - 1
                r = routers[j]
                if r.occupancy == 0 and r.ni._pending == 0:
                    net._active_mask &= ~(1 << j)
                    r._active = False
                else:
                    r.evaluate(now)
                j += 1
            obs = net._obs_tick
            if obs is not None:
                obs(now)
            net.cycle = now + 1
        self.cycle = now + 1


def run_spec_batch(specs: Sequence[ExperimentSpec], *,
                   schedules: Sequence[GatingSchedule | None] | None = None,
                   checkpoint_every: int | None = None,
                   checkpoint_dir=None,
                   resume_from=None,
                   interrupt=None) -> "list[ExperimentResult]":
    """Run B experiment specs as one :class:`ReplicaBatch` invocation.

    Returns one :class:`~repro.harness.runner.ExperimentResult` per
    spec, in order, each bit-identical to ``run_spec(spec)`` — same
    construction order, same seeds, same warmup/measure/drain
    transitions at the same per-replica cycles.  Replicas may have
    mixed rates, fractions, seeds and horizons; early-finishing
    replicas retire without perturbing the rest.

    Checkpointing mirrors :func:`~repro.harness.runner.run_spec`:
    ``checkpoint_every=N`` writes one atomic batch-level snapshot (all
    live replicas + lifecycle arrays) every N lockstep cycles into
    ``checkpoint_dir`` and removes it on completion; ``resume_from`` (a
    path or loaded payload) continues where the batch stopped, with the
    same digest-equality contract per replica; ``interrupt`` (polled at
    checkpoint boundaries) stops the whole batch cooperatively via
    :class:`~repro.harness.checkpoint.CheckpointInterrupt`.
    """
    from ..harness.runner import ExperimentResult

    if schedules is None:
        schedules = [None] * len(specs)
    if len(schedules) != len(specs):
        raise SpecError("schedules must align 1:1 with specs")

    payload = None
    if resume_from is not None:
        if isinstance(resume_from, dict):
            payload = resume_from
            check_schema(payload, kind="run_spec_batch")
        else:
            from ..harness.checkpoint import load_checkpoint
            payload = load_checkpoint(resume_from, kind="run_spec_batch")

    batch = ReplicaBatch()
    resolved: list[ExperimentSpec] = []
    for spec, schedule in zip(specs, schedules):
        if spec.workload is not None:
            raise SpecError("full-system workload specs cannot be batched; "
                            "run them through run_spec")
        spec = spec.resolved()
        cfg = spec.config()
        net = Network(cfg, keep_samples=spec.keep_samples, kernel="batched")
        if payload is None:
            # restored runs install each snapshot's flattened schedule
            # instead (see Network.restore_state)
            if schedule is None:
                schedule = spec.build_schedule(cfg)
            if schedule is None:
                schedule = StaticGating(cfg.num_routers, spec.gated_fraction,
                                        seed=spec.seed)
            net.set_gating(schedule)
        gen = TrafficGenerator(net, get_pattern(spec.pattern, cfg,
                                                **dict(spec.pattern_kwargs)),
                               spec.rate, seed=spec.seed)
        batch.add(net, gen)
        resolved.append(spec)

    n = len(resolved)
    results: list[ExperimentResult | None] = [None] * n
    # replica-axis lifecycle state (struct-of-arrays)
    warm = np.array([s.warmup for s in resolved], dtype=np.int64)
    horizon = warm + np.array([s.measure for s in resolved], dtype=np.int64)
    drain = np.array([s.drain for s in resolved], dtype=bool)
    draining = np.zeros(n, dtype=bool)
    idle = np.zeros(n, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    reports = [None] * n
    tick = [True] * n

    from ..harness.cache import spec_digest
    spec_keys = [spec_digest(s) for s in resolved]
    if payload is not None:
        from ..harness.cache import result_from_dict
        from ..power.accounting import EnergyReport
        if payload["spec_keys"] != spec_keys:
            raise SnapshotError("checkpoint was taken for a different "
                                "batch of experiment specs")
        batch.restore_state(payload["batch"])
        draining = np.array(payload["draining"], dtype=bool)
        idle = np.array(payload["idle"], dtype=np.int64)
        steps = np.array(payload["steps"], dtype=np.int64)
        tick = list(payload["tick"])
        reports = [None if r is None else EnergyReport(**r)
                   for r in payload["reports"]]
        results = [None if r is None else result_from_dict(r)
                   for r in payload["results"]]

    ckpt_path = None
    if checkpoint_every:
        from ..harness.cache import result_to_dict
        from ..harness.checkpoint import (CheckpointInterrupt,
                                          batch_checkpoint_path,
                                          write_checkpoint)
        ckpt_path = batch_checkpoint_path(checkpoint_dir, resolved)

        def save() -> None:
            write_checkpoint(ckpt_path, {
                "schema": SNAPSHOT_SCHEMA_VERSION,
                "kind": "run_spec_batch",
                "spec_keys": spec_keys,
                "specs": [s.to_dict() for s in resolved],
                "batch": batch.snapshot_state(),
                "draining": draining.tolist(),
                "idle": idle.tolist(),
                "steps": steps.tolist(),
                "tick": list(tick),
                "reports": [None if r is None else {
                    "cycles": r.cycles, "static_j": r.static_j,
                    "dynamic_j": r.dynamic_j, "gating_j": r.gating_j}
                    for r in reports],
                "results": [None if r is None else result_to_dict(r)
                            for r in results],
            })
            if interrupt is not None and interrupt():
                raise CheckpointInterrupt(ckpt_path)

    def finish(i: int) -> None:
        spec = resolved[i]
        net = batch._nets[i]
        rep = reports[i]
        stats = net.stats
        power = rep.power_w(net.pcfg.cycle_time_s)
        states = net.power_states()
        results[i] = ExperimentResult(
            mechanism=spec.mechanism,
            pattern=spec.pattern,
            rate=spec.rate,
            gated_fraction=spec.gated_fraction,
            warmup=spec.warmup,
            measured_cycles=spec.measure,
            avg_latency=stats.avg_latency,
            avg_network_latency=stats.avg_network_latency,
            breakdown=stats.breakdown(net.cfg.packet_size),
            throughput=stats.throughput(spec.measure, net.cfg.num_routers),
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
            samples=list(stats.samples) if spec.keep_samples else [],
            trace_path=None,
            metrics={},
        )
        batch.retire(i)

    while batch.live_count:
        t = batch.cycle
        # vectorized phase boundaries on the replica axis
        for i in np.nonzero(warm == t)[0]:
            if results[i] is None:
                batch._nets[i].begin_measurement()
        for i in np.nonzero(horizon == t)[0]:
            if results[i] is not None:
                continue
            # measurement window closes exactly at warmup + measure
            reports[i] = batch._nets[i].accountant.report(int(t))
            tick[i] = False
            if drain[i]:
                draining[i] = True
            else:
                finish(i)
        if not batch.live_count:
            break
        batch.step_cycle(tick)
        # post-step drain bookkeeping, mirroring run_spec's loop:
        # idle-streak reset on any in-fabric flit, hard 20k-step cap
        for i in np.nonzero(draining)[0]:
            steps[i] += 1
            idle[i] = idle[i] + 1 if batch._nets[i].network_drained() else 0
            if idle[i] > DRAIN_IDLE_STREAK or steps[i] >= DRAIN_MAX_STEPS:
                draining[i] = False
                finish(i)
        # between full lockstep cycles: next iteration's phase-boundary
        # checks have not run yet, so a resume replays them identically
        if ckpt_path is not None and batch.cycle % checkpoint_every == 0:
            save()

    if ckpt_path is not None:
        # completed: the checkpoint would resume into a finished batch
        try:
            os.unlink(ckpt_path)
        except OSError:
            pass
    return results  # type: ignore[return-value]
