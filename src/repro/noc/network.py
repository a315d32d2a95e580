"""Mesh network: topology wiring and the simulation kernel(s).

Per-cycle phase order (cycle accuracy contract):

1. OS gating-schedule changes are announced to the mechanism.
2. The mechanism's control plane steps (handshakes / fabric manager);
   power-state transitions commit here, observing channel/buffer state
   from the end of the previous cycle.
3. Credits whose arrival cycle has been reached are delivered (or relayed
   by sleeping routers).
4. Flits are delivered into input buffers (or fly over sleeping routers).
5. Every powered router with work evaluates: escape-timeout escalation,
   NI injection, VC allocation, switch allocation + traversal.

Two kernels implement this contract with bit-identical results:

* ``active`` (default) — an *activity-driven* kernel.  Credit/flit
  delivery walks a timing wheel (``dict[cycle, list[channel]]``) so only
  channels with items due *now* are touched, and the evaluation phase
  visits only routers on the *active set* (routers with buffered flits
  or pending NI injections).  Sleeping FLOV routers carry no work, fall
  out of the loop entirely, and are serviced purely by the delivery
  phase's fly-over relay.
* ``dense`` — the original reference kernel: every router, every
  channel, every cycle.  Kept behind ``REPRO_KERNEL=dense`` so the
  equivalence suite can assert identical :class:`StatsCollector` output.

Kernel choice never changes results, so on-disk experiment cache entries
are kernel-independent by construction.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from time import perf_counter_ns

from ..config import TECH, NoCConfig
from ..core.power_fsm import PowerState
from ..gating.schedule import GatingSchedule
from ..power.accounting import EnergyAccountant
from ..registry import KERNELS as KERNEL_REGISTRY
from ..registry import MECHANISMS as MECHANISM_REGISTRY
from .buffer import VCState
from .mechanism import Mechanism
from .router import Router
from .stats import StatsCollector
from .types import OPPOSITE, Direction, Flit, Packet, make_packet

#: valid values for the ``REPRO_KERNEL`` environment knob (a live view
#: of the kernel registry)
KERNELS = KERNEL_REGISTRY


def default_kernel() -> str:
    """Kernel selected by the ``REPRO_KERNEL`` environment variable."""
    kernel = os.environ.get("REPRO_KERNEL", "active")
    if kernel not in KERNEL_REGISTRY:
        raise ValueError(f"REPRO_KERNEL must be one of "
                         f"{KERNEL_REGISTRY.names()}, got {kernel!r}")
    return kernel


def deliver_due(wheel: dict[int, list], now: int, *, credits: bool,
                retired: list[bool] | None = None) -> None:
    """The wheel-driven kernels' delivery loop: each entry of the ``now``
    bucket pops one due item off its channel; a stale entry (see the
    ``noc/channel.py`` wheel contract) is dropped.  A powered sink gets
    ``Router.deliver_credit`` / ``deliver_flit``'s powered branch in
    place, a sleeping one the call.  ``retired[ch.owner]`` (the batch
    kernel) drops an entry undelivered."""
    bucket = wheel.pop(now, None)
    if bucket is None:
        return
    if retired is not None:
        bucket = [ch for ch in bucket if not retired[ch.owner]]
    draining = PowerState.DRAINING
    if credits:
        for ch in bucket:
            q = ch._q
            if not q or q[0][0] > now:
                continue  # stale entry
            vc = q.popleft()[1]
            sink = ch.sink
            if sink.state <= draining:
                cr = sink.credits[ch.sink_dir]
                if cr[vc] < sink.cfg.buffer_depth:
                    cr[vc] += 1
            else:
                sink.deliver_credit(vc, ch.sink_dir, now)
        return
    idle, routing = VCState.IDLE, VCState.ROUTING
    for ch in bucket:
        q = ch._q
        if not q or q[0][0] > now:
            continue  # stale entry
        flit = q.popleft()[1]
        sink = ch.sink
        d = ch.sink_dir
        if sink.state > draining:
            sink.deliver_flit(flit, d, now)
            continue
        flit.in_dir = d
        flit.ready = now + sink._rl_m1
        flit.buffered_at = now
        ivc = sink.ivc[d][flit.vc]
        buf = ivc.buffer
        if len(buf) >= ivc.capacity:
            raise OverflowError("VC buffer overflow: flow control violated")
        buf.append(flit)
        if flit.is_head:
            if ivc.state is idle and len(buf) == 1:
                ivc.state = routing
                ivc.wait_since = now
                sink._port_routing[d] += 1
                sink._n_routing += 1
            tr = sink._tracer
            if tr is not None:
                tr.emit(now, "hop", sink.node, flit.packet.pid, d.name,
                        flit.vc)
        elif ivc.state is idle:
            # mid-packet adoption after wakeup (``Router.deliver_flit``)
            sink._adopt_midstream(flit, d)
        sink.occupancy += 1
        if not sink._active:
            sink._active = True
            sink.net._active_mask |= sink._bit
        sink._acct.buffer_writes += 1


class Network:
    """An ``width x height`` mesh NoC with a pluggable gating mechanism."""

    def __init__(self, cfg: NoCConfig, *, keep_samples: bool = False,
                 kernel: str | None = None) -> None:
        self.cfg = cfg
        #: the technology record (reports convert joules with its clock)
        self.pcfg = TECH
        self.kernel = default_kernel() if kernel is None else kernel
        #: the registry names the Network step method of each kernel
        #: (an unknown kernel raises, listing the choices)
        self._step_one = getattr(self, KERNEL_REGISTRY.get(self.kernel))
        self.cycle = 0
        self.injection_frozen = False
        #: observability hooks (opt-in; see ``repro.obs``): ``_tracer``
        #: is mirrored onto every router so hot paths pay exactly one
        #: ``is not None`` test; ``_metrics`` is read by the handshake
        #: controllers for completion histograms; ``_obs_tick`` is the
        #: sampler's per-cycle callback (None when no sampler attached)
        self._tracer = None
        self._metrics = None
        self._obs_tick = None
        #: kernel phase profiler (see ``repro.obs.profile``); when None
        #: each kernel step pays one ``is not None`` test per phase
        self._profiler = None
        #: fault injector (see ``repro.faults``); when None both kernels
        #: and the handshake send path pay one ``is not None`` test
        self._faults = None
        self.accountant = EnergyAccountant(cfg)
        self.stats = StatsCollector(cfg.router_latency,
                                    keep_samples=keep_samples)
        #: flits currently inside the fabric (input buffers + links);
        #: +1 on NI injection, -1 on ejection / ring extraction.  Makes
        #: :meth:`network_drained` O(1) for the drain protocols that poll
        #: it every reconfiguration epoch.
        self._flits = 0
        #: timing wheels: arrival cycle -> channels with that head arrival
        self._flit_wheel: dict[int, list] = {}
        self._credit_wheel: dict[int, list] = {}
        #: bitmask mirror of the routers' ``_active`` flags (bit = node id)
        #: — the evaluation scan walks set bits instead of all routers
        self._active_mask = (1 << cfg.num_routers) - 1
        self.routers: list[Router] = [Router(self, n)
                                      for n in range(cfg.num_routers)]
        self._wire()
        self.mech: Mechanism = MECHANISM_REGISTRY.get(cfg.mechanism)(self)
        self.mech.setup()
        for r in self.routers:  # hot-path caches (see Router.__init__)
            r.mech = self.mech
            r._uses_escape = self.mech.uses_escape
        self.gating: GatingSchedule = GatingSchedule()
        self._change_points: tuple[int, ...] = ()
        #: advancing cursor into the sorted change points (no per-cycle
        #: membership scan)
        self._cp_idx = 0
        self._pid = 0

    # -- construction --------------------------------------------------------

    def _wire(self) -> None:
        from .channel import CreditChannel, DelayChannel

        cfg = self.cfg
        # The dense reference kernel scans router channel dicts directly;
        # leaving its channels unbound keeps send_at on the plain-append
        # fast path and the wheels empty.  Every other kernel gets the
        # timing wheels.
        dense = self.kernel == "dense"
        fw = None if dense else self._flit_wheel
        cw = None if dense else self._credit_wheel
        for r in self.routers:
            for d in (Direction.NORTH, Direction.EAST):
                nb_id = r.neighbor_id(d)
                if nb_id is None:
                    continue
                nb = self.routers[nb_id]
                od = OPPOSITE[d]
                fwd: DelayChannel[Flit] = DelayChannel(cfg.link_latency)
                rev: DelayChannel[Flit] = DelayChannel(cfg.link_latency)
                r.out_flit[d] = fwd
                nb.in_flit[od] = fwd
                fwd.bind(fw, nb, od)
                nb.out_flit[od] = rev
                r.in_flit[d] = rev
                rev.bind(fw, r, d)
                # credits for flits r -> nb flow back on nb.out_credit[od]
                cr_fwd = CreditChannel(cfg.credit_latency)
                cr_rev = CreditChannel(cfg.credit_latency)
                nb.out_credit[od] = cr_fwd
                r.in_credit[d] = cr_fwd
                cr_fwd.bind(cw, r, d)
                r.out_credit[d] = cr_rev
                nb.in_credit[od] = cr_rev
                cr_rev.bind(cw, nb, od)

    # -- observability (opt-in; see repro.obs) --------------------------------

    def attach_tracer(self, tracer) -> None:
        """Start recording structured events into ``tracer``.

        Pass ``None`` to detach.  The reference is mirrored onto every
        router so the data-plane hook sites pay a single attribute test.
        """
        self._tracer = tracer
        for r in self.routers:
            r._tracer = tracer

    def attach_metrics(self, sampler) -> None:
        """Install a :class:`~repro.obs.sampler.NetworkSampler` (or any
        object with ``on_cycle(now)`` and a ``registry``); ``None``
        detaches.  The sampler is ticked once per simulated cycle."""
        if sampler is None:
            self._metrics = None
            self._obs_tick = None
        else:
            self._metrics = sampler.registry
            self._obs_tick = sampler.on_cycle

    def attach_profiler(self, profiler) -> None:
        """Install a :class:`~repro.obs.profile.KernelProfiler` (or any
        object with ``t_handshake``/``t_delivery``/``t_evaluate``/
        ``t_sampler``/``step_ns``/``cycles`` accumulators); ``None``
        detaches.  Both kernels add ``perf_counter_ns`` deltas at their
        phase boundaries; detached, each boundary is a single
        ``is not None`` test.  Profiling only reads clocks — simulation
        results are unchanged."""
        self._profiler = profiler

    def attach_faults(self, injector) -> None:
        """Install a :class:`~repro.faults.FaultInjector`; ``None``
        detaches.  Faults are injected at the kernels' per-cycle hook
        (link outages, spurious power resets) and at the handshake send
        path (message drop/duplicate/delay).  Detached runs are
        bit-identical to a build without the fault layer."""
        if injector is not None:
            injector.bind(self)
        self._faults = injector

    # -- gating schedule ------------------------------------------------------

    def set_gating(self, schedule: GatingSchedule) -> None:
        """Install an OS core-gating schedule (before the first step)."""
        self.gating = schedule
        self._change_points = tuple(schedule.change_points)
        # change points already behind the current cycle can never fire
        self._cp_idx = bisect_left(self._change_points, self.cycle)
        self.mech.on_schedule_change(self.cycle,
                                     schedule.gated_at(self.cycle))

    # -- traffic ---------------------------------------------------------------

    def inject_packet(self, src: int, dest: int, size: int | None = None, *,
                      vnet: int = 0, payload: object = None) -> Packet:
        """Create a packet and queue it at the source NI."""
        if size is None:
            size = self.cfg.packet_size
        self._pid += 1
        flits = make_packet(self._pid, src, dest, size, vnet=vnet,
                            time=self.cycle, payload=payload)
        pkt = flits[0].packet
        if src == dest:
            # NI loopback: never enters the network
            pkt.inject_time = self.cycle
            self.stats.on_inject(pkt)
            self.routers[src].ni.eject(pkt, self.cycle)
            return pkt
        self.routers[src].ni.send_flits(flits)
        return pkt

    # -- simulation kernel ------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by ``cycles`` cycles."""
        step_one = self._step_one
        for _ in range(cycles):
            step_one()

    def _fire_schedule_changes(self, now: int) -> None:
        """Advance the change-point cursor; fire the handler at a match."""
        cps = self._change_points
        i = self._cp_idx
        n = len(cps)
        while i < n and cps[i] < now:
            i += 1
        if i < n and cps[i] == now:
            i += 1
            self._cp_idx = i
            self.mech.on_schedule_change(now, self.gating.gated_at(now))
        else:
            self._cp_idx = i

    def _step_dense(self) -> None:
        """Reference kernel: visit every router and channel, every cycle."""
        now = self.cycle
        prof = self._profiler
        if prof is not None:
            _t0 = _t = perf_counter_ns()
        if self._cp_idx < len(self._change_points):
            self._fire_schedule_changes(now)
        self.mech.step(now)
        flt = self._faults
        if flt is not None:
            flt.on_cycle(now)
        if prof is not None:
            _n = perf_counter_ns()
            prof.t_handshake += _n - _t
            _t = _n
        routers = self.routers
        for r in routers:
            for d, ch in r.in_credit.items():
                q = ch._q
                while q and q[0][0] <= now:
                    r.deliver_credit(q.popleft()[1], d, now)
        for r in routers:
            for d, ch in r.in_flit.items():
                q = ch._q
                while q and q[0][0] <= now:
                    r.deliver_flit(q.popleft()[1], d, now)
        if prof is not None:
            _n = perf_counter_ns()
            prof.t_delivery += _n - _t
            _t = _n
        for r in routers:
            r.evaluate(now)
        if prof is not None:
            _n = perf_counter_ns()
            prof.t_evaluate += _n - _t
            _t = _n
        obs = self._obs_tick
        if obs is not None:
            obs(now)
        if prof is not None:
            _n = perf_counter_ns()
            prof.t_sampler += _n - _t
            prof.step_ns += _n - _t0
            prof.cycles += 1
        self.cycle = now + 1

    def _step_active(self) -> None:
        """Activity-driven kernel: due channels and active routers only.

        Bit-identical to :meth:`_step_dense` because (a) same-cycle
        deliveries commute — they only mutate the receiving router or
        schedule strictly-future channel arrivals — and (b) the
        evaluation scan preserves ascending node order, including
        routers activated mid-phase by upstream ejection sinks.
        """
        now = self.cycle
        prof = self._profiler
        if prof is not None:
            _t0 = _t = perf_counter_ns()
        if self._cp_idx < len(self._change_points):
            self._fire_schedule_changes(now)
        self.mech.step(now)
        flt = self._faults
        if flt is not None:
            flt.on_cycle(now)
        if prof is not None:
            _n = perf_counter_ns()
            prof.t_handshake += _n - _t
            _t = _n

        deliver_due(self._credit_wheel, now, credits=True)
        deliver_due(self._flit_wheel, now, credits=False)
        if prof is not None:
            _n = perf_counter_ns()
            prof.t_delivery += _n - _t
            _t = _n

        # Active-router scan, ascending node order.  The mask (mirroring
        # the routers' ``_active`` flags) is set by every work-arrival
        # site (buffer push, NI enqueue) and cleared lazily here once a
        # router runs out of work.  Re-reading the live mask each
        # iteration picks up routers activated during this very phase
        # (ejection sinks injecting downstream) exactly like a dense
        # ascending scan of the flags would.
        routers = self.routers
        i = 0
        while True:
            rem = self._active_mask >> i
            if not rem:
                break
            i += (rem & -rem).bit_length() - 1
            r = routers[i]
            if r.occupancy == 0 and r.ni._pending == 0:
                self._active_mask &= ~(1 << i)
                r._active = False
            else:
                r.evaluate(now)
            i += 1
        if prof is not None:
            _n = perf_counter_ns()
            prof.t_evaluate += _n - _t
            _t = _n
        obs = self._obs_tick
        if obs is not None:
            obs(now)
        if prof is not None:
            _n = perf_counter_ns()
            prof.t_sampler += _n - _t
            prof.step_ns += _n - _t0
            prof.cycles += 1
        self.cycle = now + 1

    def begin_measurement(self) -> None:
        """End warmup: measure latency/energy from the current cycle on."""
        self.stats.warmup = self.cycle
        self.accountant.reset_window(self.cycle)

    # -- global inspection helpers (mechanism support + tests) --------------------

    def _walk(self, src: int, dst: int) -> tuple[Direction, list[int]]:
        """Direction and node path (src inclusive, dst exclusive) along a
        shared row/column."""
        cfg = self.cfg
        sx, sy = cfg.node_xy(src)
        dx, dy = cfg.node_xy(dst)
        if sx == dx:
            d = Direction.NORTH if dy > sy else Direction.SOUTH
            step = cfg.width if dy > sy else -cfg.width
        elif sy == dy:
            d = Direction.EAST if dx > sx else Direction.WEST
            step = 1 if dx > sx else -1
        else:
            raise ValueError("nodes do not share a row or column")
        path = []
        node = src
        while node != dst:
            path.append(node)
            node += step
        return d, path

    def segment_has_no_flits(self, src: int, dst: int) -> bool:
        """No flits in flight on the straight channel segment src -> dst."""
        d, path = self._walk(src, dst)
        for node in path:
            ch = self.routers[node].out_flit.get(d)
            if ch is not None and len(ch):
                return False
        return True

    def purge_credits_between(self, a: int, b: int) -> None:
        """Drop in-flight credits on the straight segment between ``a`` and
        ``b`` (both directions) — part of the wake-up credit re-sync."""
        d, path = self._walk(a, b)
        od = OPPOSITE[d]
        for node in path:
            ch = self.routers[node].out_credit.get(d)
            if ch is not None:
                ch.clear()
        _, rpath = self._walk(b, a)
        for node in rpath:
            ch = self.routers[node].out_credit.get(od)
            if ch is not None:
                ch.clear()

    def network_drained(self) -> bool:
        """True when no flits exist in buffers or on links (NIs excluded).

        O(1): reads the maintained in-fabric flit counter instead of
        re-scanning every buffer and channel (compare
        :meth:`network_drained_slow`, kept as the auditable reference).
        """
        return self._flits == 0

    def network_drained_slow(self) -> bool:
        """Reference implementation of :meth:`network_drained` by
        exhaustive scan; the invariant suite cross-checks the counter
        against this."""
        for r in self.routers:
            if r.occupancy:
                return False
            for ch in r.out_flit.values():
                if ch:
                    return False
        return True

    def power_states(self) -> dict[str, int]:
        """Population count per power state (reporting)."""
        out: dict[str, int] = {}
        for r in self.routers:
            out[r.state.name] = out.get(r.state.name, 0) + 1
        return out

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self) -> dict:
        """Freeze every stateful component (see ``docs/checkpoint.md``).

        Call between cycles only.  Checkpoint files
        (:mod:`repro.harness.checkpoint`) carry it inside their
        versioned envelope.  A mesh with a fault injector attached is
        refused (:class:`~repro.noc.snapshot.SnapshotError`): no run
        that checkpoints attaches one, so the injector has no state
        codec and ``"faults"`` is always null.
        """
        from ..gating.schedule import schedule_to_epochs
        from .snapshot import PacketTable, require
        require(self._faults is None,
                "cannot snapshot a mesh with a fault injector attached")
        pkts = PacketTable()
        data = {
            "mechanism": self.cfg.mechanism,
            "width": self.cfg.width,
            "height": self.cfg.height,
            "cycle": self.cycle,
            "pid": self._pid,
            "flits": self._flits,
            "injection_frozen": self.injection_frozen,
            "active_mask": self._active_mask,
            "cp_idx": self._cp_idx,
            "gating": schedule_to_epochs(self.gating),
            "routers": [r.snapshot_state(pkts) for r in self.routers],
            "mech": self.mech.snapshot_state(pkts),
            "stats": self.stats.snapshot_state(),
            "accountant": self.accountant.snapshot_state(),
            "faults": None,
        }
        # encoded last: every component has registered its packets by now
        data["packets"] = pkts.encode()
        return data

    def restore_state(self, data: dict, *, clear_wheels: bool = True) -> None:
        """Rebuild from :meth:`snapshot_state` onto this fresh network.

        The network must be constructed from the same config (mechanism
        and topology are validated; the kernel may differ — wheels are
        re-derived from channel queues).  ``clear_wheels=False`` is for
        :class:`~repro.noc.batched.ReplicaBatch`, whose *shared* wheels
        hold other replicas' registrations and are cleared once by the
        batch before restoring each member.
        """
        from ..gating.schedule import schedule_from_epochs
        from .snapshot import PacketIndex, require
        require(data.get("mechanism") == self.cfg.mechanism,
                f"snapshot is for mechanism {data.get('mechanism')!r}, "
                f"network runs {self.cfg.mechanism!r}")
        require(data.get("width") == self.cfg.width
                and data.get("height") == self.cfg.height,
                f"snapshot mesh {data.get('width')}x{data.get('height')} "
                f"!= network {self.cfg.width}x{self.cfg.height}")
        require(data.get("faults") is None,
                "snapshot carries fault-injector state; only meshes "
                "without an injector are checkpointed")
        self.cycle = data["cycle"]
        self._pid = data["pid"]
        self._flits = data["flits"]
        self.injection_frozen = data["injection_frozen"]
        self._active_mask = data["active_mask"]
        # install the flattened schedule directly — mechanism reactions
        # to past schedule changes are already inside the components'
        # restored state, so on_schedule_change must NOT fire again
        schedule = schedule_from_epochs(data["gating"])
        self.gating = schedule
        self._change_points = tuple(schedule.change_points)
        self._cp_idx = data["cp_idx"]
        pkts = PacketIndex(data["packets"])
        if clear_wheels:
            self._flit_wheel.clear()
            self._credit_wheel.clear()
        for r, rd in zip(self.routers, data["routers"]):
            r.restore_state(rd, pkts)
        # wheel registration is derived state: rebuild it for whatever
        # kernel this network runs (dense channels bind no wheel — no-op)
        for r in self.routers:
            for ch in r.out_flit.values():
                ch.reschedule()
            for ch in r.out_credit.values():
                ch.reschedule()
        self.mech.restore_state(data["mech"], pkts)
        self.stats.restore_state(data["stats"])
        self.accountant.restore_state(data["accountant"])
