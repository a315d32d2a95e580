"""The FLOV router: a 3-stage virtual-channel router with a fly-over
latch datapath (Figure 1 of the paper).

When powered on it behaves as a classic credit-based wormhole VC router:

* **RC/VA** — heads of ROUTING VCs compute a route (mechanism-specific
  function) and compete for a downstream output VC.
* **SA** — ACTIVE VCs with a pipeline-ready front flit and a downstream
  credit compete for the crossbar (separable input-first round-robin).
* **ST** — winners traverse; credits return upstream; flits appear at the
  downstream buffer after the link latency.

When power-gated (SLEEP/WAKEUP) the baseline portion is off and the
per-direction output latches forward flits straight through in one cycle
and relay returning credits toward the logical upstream router.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Callable

from ..core.power_fsm import PowerState
from ..core.routing import Hold
from .buffer import InputVC, VCState
from .channel import CreditChannel, DelayChannel
from .types import (DIR_DELTA, MESH_DIRS, OPPOSITE, Direction, Flit, Packet)

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


class _LazyRotation(dict):
    """``mask -> members of mask in `order``` filled in on first use."""

    __slots__ = ("order",)

    def __init__(self, order: tuple[int, ...]) -> None:
        self.order = order

    def __missing__(self, mask: int) -> tuple[int, ...]:
        members = self[mask] = tuple(m for m in self.order if mask >> m & 1)
        return members


def _rotations(members: tuple[int, ...]):
    """Round-robin scan orders over subsets of ``members``.

    ``table[ptr][mask]`` is the tuple of those ``members`` whose bit
    ``1 << member`` is set in ``mask``, in the order a scan starting at
    position ``ptr`` and wrapping around meets them.  Rows over more
    than 6 bits (full-system runs have 12 VCs) fill in lazily.
    """
    orders = [members[p:] + members[:p] for p in range(len(members))]
    bits = max(members) + 1
    if bits > 6:
        return tuple(_LazyRotation(order) for order in orders)
    return tuple(tuple(tuple(m for m in order if mask >> m & 1)
                       for mask in range(1 << bits)) for order in orders)


# One table per distinct port list / VC count, shared by every router of
# every network in the process (the entries are immutable tuples).

@cache
def port_rotations(ports: tuple[Direction, ...]):
    """``table[_sa_in_ptr][port mask]`` -> ports in switch-allocation
    order (bit ``1 << direction``)."""
    return _rotations(ports)


@cache
def vc_rotations(num_vcs: int):
    """``table[_sa_vc_ptr[port]][VC mask]`` -> VC indices in
    switch-allocation order."""
    return _rotations(tuple(range(num_vcs)))


class NetworkInterface:
    """Injection/ejection endpoint attached to a router's LOCAL port.

    Keeps one unbounded source queue per vnet; injects at most one flit
    per cycle (local port bandwidth), whole packets per VC (wormhole).
    Ejected packets are passed to an optional sink callback (the
    full-system protocol engines) and recorded in the stats collector.
    """

    __slots__ = ("router", "_queues", "_heads", "_pending", "_cur_vc",
                 "_vnet_rr", "sink")

    def __init__(self, router: "Router") -> None:
        self.router = router
        cfg = router.cfg
        self._queues: list[list[Flit]] = [[] for _ in range(cfg.num_vnets)]
        self._heads: list[int] = [0] * cfg.num_vnets
        self._pending = 0
        self._cur_vc: list[int] = [-1] * cfg.num_vnets
        self._vnet_rr = 0
        self.sink: Callable[[Packet], None] | None = None

    # -- producer side -------------------------------------------------------

    def send_flits(self, flits: list[Flit]) -> None:
        """Queue a packet's flits for injection."""
        vnet = flits[0].packet.vnet
        self._queues[vnet].extend(flits)
        self._pending += len(flits)
        router = self.router
        router._active = True  # pending NI work: keep in the scan
        router.net._active_mask |= router._bit
        router.net.stats.on_inject(flits[0].packet)
        if not router.powered:
            # the node's protocol engines (L2 bank / directory) produced a
            # message while the router is power-gated: the mechanism must
            # provide a way out (FLOV wakes the router; NoRD rides the
            # bypass ring)
            self.router.net.mech.on_local_inject_blocked(self.router)

    def take_pending_packets(self) -> list:
        """Remove every not-yet-started queued packet (NoRD ring entry).

        Only callable when the router is gated: nothing can be partially
        injected (drain required an empty queue), so whole packets leave.
        """
        pkts = []
        for q, h in zip(self._queues, self._heads):
            rest = q[h:]
            assert not rest or rest[0].is_head, "partially injected packet"
            for f in rest:
                if f.is_head:
                    pkts.append(f.packet)
            self._pending -= len(rest)
            del q[h:]
        return pkts

    @property
    def pending_flits(self) -> int:
        return self._pending

    def drop_queued_to(self, dests: frozenset[int]) -> int:
        """Drop queued, not-yet-injected packets addressed to ``dests``.

        Used by Router Parking at reconfiguration: messages to a node
        whose router is being parked would not have been generated by the
        (migrated) threads. Only whole packets can be queued here (the
        network is drained first), so dropping is always clean. Returns
        the number of packets dropped.
        """
        dropped = 0
        for q, h in zip(self._queues, self._heads):
            kept = q[:h]
            for flit in q[h:]:
                if flit.packet.dest in dests:
                    if flit.is_head:
                        dropped += 1
                    self._pending -= 1
                else:
                    kept.append(flit)
            q[:] = kept
        if dropped:
            self.router.net.stats.packets_dropped += dropped
        return dropped

    # -- per-cycle injection -------------------------------------------------

    def inject(self, now: int) -> None:
        """Try to push one flit into the router's LOCAL input port."""
        router = self.router
        frozen = router.net.injection_frozen
        nv = router.cfg.num_vnets
        local = router.ivc[Direction.LOCAL]
        for off in range(nv):
            vnet = (self._vnet_rr + off) % nv
            q, h = self._queues[vnet], self._heads[vnet]
            if h >= len(q):
                continue
            flit = q[h]
            if flit.is_head:
                if frozen:
                    # RP Phase-I reconfiguration: no *new* packets, but
                    # packets already partially injected must complete so
                    # the network can drain
                    continue
                vc = self._pick_idle_vc(local, vnet)
                if vc < 0:
                    continue
                self._cur_vc[vnet] = vc
                flit.packet.inject_time = now
                ivc = local[vc]
            else:
                vc = self._cur_vc[vnet]
                ivc = local[vc]
                if len(ivc.buffer) >= ivc.capacity:
                    continue
            flit.vc = vc
            flit.in_dir = Direction.LOCAL
            flit.ready = now + router._rl_m1
            flit.buffered_at = now
            # inlined ``InputVC.push`` (the checks above leave room): a
            # head enters an empty IDLE VC (``_pick_idle_vc``)
            ivc.buffer.append(flit)
            if flit.is_head:
                # head entered an idle VC: it is now ROUTING
                ivc.state = VCState.ROUTING
                ivc.wait_since = now
                router._port_routing[Direction.LOCAL] += 1
                router._n_routing += 1
                tr = router._tracer
                if tr is not None:
                    pkt = flit.packet
                    tr.emit(now, "inject", router.node, pkt.pid, pkt.src,
                            pkt.dest, pkt.size, pkt.vnet)
            router.occupancy += 1
            router.net._flits += 1  # flit enters the fabric
            router._acct.buffer_writes += 1
            router.last_local_activity = now
            self._pending -= 1
            self._heads[vnet] = h + 1
            if self._heads[vnet] > 4096:  # amortized queue compaction
                del q[: self._heads[vnet]]
                self._heads[vnet] = 0
            self._vnet_rr = (vnet + 1) % nv
            return

    def _pick_idle_vc(self, local: list[InputVC], vnet: int) -> int:
        cfg = self.router.cfg
        for i in range(self.router.injectable_vcs):
            vc = cfg.vc_index(vnet, i)
            ivc = local[vc]
            if ivc.state == VCState.IDLE and not ivc.buffer:
                return vc
        return -1

    # -- consumer side -------------------------------------------------------

    def eject(self, pkt: Packet, now: int) -> None:
        pkt.eject_time = now + 1
        self.router.net.stats.on_eject(pkt)
        self.router.last_local_activity = now
        tr = self.router._tracer
        if tr is not None:
            tr.emit(now, "eject", self.router.node, pkt.pid, pkt.src,
                    pkt.dest, pkt.eject_time - pkt.create_time)
        if self.sink is not None:
            self.sink(pkt)

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self, pkts) -> dict:
        from .snapshot import encode_flit
        # queues serialized compacted (consumed prefix dropped), so heads
        # restore to 0; ``sink`` is wired by the owning protocol engine,
        # not part of the snapshot
        return {"queues": [[encode_flit(f, pkts) for f in q[h:]]
                           for q, h in zip(self._queues, self._heads)],
                "cur_vc": list(self._cur_vc),
                "vnet_rr": self._vnet_rr}

    def restore_state(self, data: dict, pkts) -> None:
        from .snapshot import decode_flit
        self._queues = [[decode_flit(f, pkts) for f in q]
                        for q in data["queues"]]
        self._heads = [0] * len(self._queues)
        self._pending = sum(len(q) for q in self._queues)
        self._cur_vc = list(data["cur_vc"])
        self._vnet_rr = data["vnet_rr"]


class Router:
    """One mesh router plus its NI. Implements the RouterView protocol."""

    def __init__(self, net: "Network", node: int) -> None:
        self.net = net
        self.cfg = cfg = net.cfg
        self.node = node
        self.x, self.y = cfg.node_xy(node)
        self.aon_column = cfg.resolved_aon_column
        self.state = PowerState.ACTIVE
        #: activity flag: set by every work-arrival site, cleared lazily
        #: by the activity-driven kernel once the router runs dry.  A
        #: router with buffered flits or pending NI injections always has
        #: the flag set (the kernel's activation invariant).
        self._active = True
        #: opt-in structured-event tracer mirror (see repro.obs); the
        #: network's :meth:`~repro.noc.network.Network.attach_tracer`
        #: writes it so data-plane hooks pay one ``is not None`` test
        self._tracer = None

        V = cfg.total_vcs
        self._V = V
        #: precomputed neighbor ids (None off-mesh): hot lookup table for
        #: mechanisms and the handshake control plane
        self._neighbors: dict[Direction, int | None] = {}
        for d in MESH_DIRS:
            dx, dy = DIR_DELTA[d]
            nx, ny = self.x + dx, self.y + dy
            self._neighbors[d] = (cfg.node_id(nx, ny)
                                  if 0 <= nx < cfg.width
                                  and 0 <= ny < cfg.height else None)
        self.mesh_ports: tuple[Direction, ...] = tuple(
            d for d in MESH_DIRS if self._neighbors[d] is not None)
        self.ports: tuple[Direction, ...] = self.mesh_ports + (Direction.LOCAL,)
        #: dimensions ("x"/"y") with neighbors on both sides: FLOV-capable.
        self.flov_dims: frozenset[str] = frozenset(
            dim for dim, (a, b) in (
                ("x", (Direction.EAST, Direction.WEST)),
                ("y", (Direction.NORTH, Direction.SOUTH)),
            ) if self.has_neighbor(a) and self.has_neighbor(b))

        self.ivc: dict[Direction, list[InputVC]] = {
            d: [InputVC(cfg.buffer_depth) for _ in range(V)]
            for d in self.ports}
        self.credits: dict[Direction, list[int]] = {
            d: [cfg.buffer_depth] * V for d in self.mesh_ports}
        self.out_owner: dict[Direction, list[tuple[Direction, int] | None]] = {
            d: [None] * V for d in self.mesh_ports}

        # channels; wired by the Network after all routers exist
        self.out_flit: dict[Direction, DelayChannel[Flit]] = {}
        self.in_flit: dict[Direction, DelayChannel[Flit]] = {}
        self.out_credit: dict[Direction, CreditChannel] = {}
        self.in_credit: dict[Direction, CreditChannel] = {}

        # power state registers (physical + logical neighbors)
        self.psr: dict[Direction, PowerState] = {
            d: PowerState.ACTIVE for d in self.mesh_ports}
        self.logical: dict[Direction, int | None] = {}
        self.logical_psr: dict[Direction, PowerState] = {
            d: PowerState.ACTIVE for d in self.mesh_ports}
        #: monotone counter bumped at every psr / logical_psr write.  Lets
        #: the handshake controller cache "this drain candidate is blocked
        #: on its neighbors" verdicts and invalidate them precisely.
        self._psr_epoch = 0

        # allocator rotation state
        self._va_ptr: dict[Direction, int] = {d: 0 for d in self.ports}
        self._sa_in_ptr = 0
        self._sa_vc_ptr: dict[Direction, int] = {d: 0 for d in self.ports}
        #: shared round-robin tables: the switch allocator's scan order
        #: over exactly the ports / VCs set in a mask, by rotation pointer
        self._port_rot = port_rotations(self.ports)
        self._vc_rot = vc_rotations(V)

        self.last_local_activity = 0
        self.ni = NetworkInterface(self)
        #: hot-path caches, filled in by the Network once the mechanism
        #: exists (routers are built first): ``mech`` saves a ``net.mech``
        #: indirection per VA call, ``_uses_escape`` one per evaluate
        self.mech = None  # type: ignore[assignment]
        self._uses_escape = False
        #: number of regular VCs usable for injection (mechanism-dependent:
        #: FLOV reserves the escape VC; baseline/RP may use all).
        self.injectable_vcs = cfg.num_vcs
        #: buffered flit count across all input VCs (evaluate early-out)
        self.occupancy = 0
        #: the network's energy accountant (restores mutate it in place)
        self._acct = net.accountant
        #: per-port count of VCs in ROUTING state and its router-wide
        #: total.  Maintained at every VC state transition so VA and the
        #: escape-timeout scan can skip ports (and stop early) without
        #: touching each VC; VA is skipped when the total is zero.
        self._port_routing: dict[Direction, int] = {d: 0 for d in self.ports}
        self._n_routing = 0
        #: per-port bitmask of VCs in ACTIVE state (bit ``1 << vc``) and
        #: the mask of ports holding any (bit ``1 << direction``),
        #: maintained at the same transitions: SA visits only these VCs
        #: and is skipped when the port mask is zero.  The invariant
        #: suite cross-checks all four against a full recount.
        self._active_vcs: dict[Direction, int] = {d: 0 for d in self.ports}
        self._active_ports = 0
        self._nports = len(self.ports)
        #: lower bound on the next cycle an escape escalation could fire
        #: (refreshed by each `_escalate_timeouts` scan; 0 = scan now)
        self._esc_next = 0
        #: this router's bit in the network's active mask
        self._bit = 1 << node
        # flattened latency constants (hot-path: one attribute load)
        self._rl_m1 = cfg.router_latency - 1
        self._link_delay = 1 + cfg.link_latency
        self._credit_delay = cfg.credit_latency
        #: False for RP-parked routers: flits must never arrive (no FLOV path)
        self.bypass_enabled = True
        #: output directions paused mid-packet for wakeup handshakes:
        #: direction -> set of waker node ids we promised silence to; SA
        #: skips a direction while any waker remains
        self.paused: dict[Direction, set[int]] = {}

    # -- RouterView protocol ---------------------------------------------------

    def has_neighbor(self, d: Direction) -> bool:
        return self._neighbors.get(d) is not None

    def neighbor_id(self, d: Direction) -> int | None:
        return self._neighbors.get(d)

    def neighbor_state(self, d: Direction) -> PowerState | None:
        return self.psr.get(d)

    def logical_neighbor(self, d: Direction) -> int | None:
        return self.logical.get(d)

    def logical_state(self, d: Direction) -> PowerState | None:
        return self.logical_psr.get(d)

    def distance_along(self, d: Direction, node: int) -> int | None:
        """Hop distance to ``node`` if it lies on the line in direction
        ``d`` from this router; None otherwise."""
        nx, ny = self.cfg.node_xy(node)
        dx, dy = DIR_DELTA[d]
        if dx != 0:
            if ny != self.y:
                return None
            dist = (nx - self.x) * dx
        else:
            if nx != self.x:
                return None
            dist = (ny - self.y) * dy
        return dist if dist > 0 else None

    # -- power-state queries -----------------------------------------------

    def pause(self, d: Direction, waker: int) -> None:
        """Promise SA silence toward ``d`` until ``waker`` finishes.

        The promise only *binds* while ``waker`` is our logical pointer
        (i.e. while our flits would actually enter its latches); stale
        entries for farther routers are inert and cleaned up by their
        awake/abort notifications."""
        self.paused.setdefault(d, set()).add(waker)

    def unpause(self, d: Direction, waker: int) -> None:
        s = self.paused.get(d)
        if s is not None:
            s.discard(waker)
            if not s:
                del self.paused[d]

    @property
    def powered(self) -> bool:
        return self.state <= PowerState.DRAINING

    def buffers_empty(self) -> bool:
        return self.occupancy == 0

    def in_flight_toward(self, d: Direction) -> bool:
        """Any packet currently allocated through output port ``d``?"""
        return any(o is not None for o in self.out_owner[d])

    # -- delivery (phase 1) ----------------------------------------------------

    def deliver_flit(self, flit: Flit, from_dir: Direction, now: int) -> None:
        """Buffer a flit, or fly it over a sleeping router (``dense`` runs
        this; ``network.deliver_due`` inlines the powered branch)."""
        acct = self._acct
        if self.state <= PowerState.DRAINING:  # inlined ``powered``
            flit.in_dir = from_dir
            flit.ready = now + self._rl_m1
            flit.buffered_at = now
            ivc = self.ivc[from_dir][flit.vc]
            # inlined ``InputVC.push`` + ``_refresh``: the pushed flit only
            # changes the VC state when it lands at the front of an IDLE
            # VC (an old front, head or not, was already refreshed)
            buf = ivc.buffer
            if len(buf) >= ivc.capacity:
                raise OverflowError(
                    "VC buffer overflow: flow control violated")
            buf.append(flit)
            if ivc.state is VCState.IDLE and flit.is_head and len(buf) == 1:
                ivc.state = VCState.ROUTING
                ivc.wait_since = now
                self._port_routing[from_dir] += 1
                self._n_routing += 1
            self.occupancy += 1
            if not self._active:  # buffered work: (re)enter the active scan
                self._active = True
                self.net._active_mask |= self._bit
            acct.buffer_writes += 1
            if flit.is_head:
                tr = self._tracer
                if tr is not None:
                    tr.emit(now, "hop", self.node, flit.packet.pid,
                            from_dir.name, flit.vc)
            if ivc.state is VCState.IDLE and not flit.is_head:
                # Mid-packet adoption after wakeup: a wormhole that was
                # flying over us when we powered on continues straight
                # through on the same VC (its head already routed at the
                # far downstream router).
                self._adopt_midstream(flit, from_dir)
            return
        # FLOV latch datapath: forward straight through, one latch cycle.
        out_d = OPPOSITE[from_dir]
        ch = self.out_flit.get(out_d) if self.bypass_enabled else None
        if ch is None:
            raise RuntimeError(
                f"flit entered power-gated router {self.node} from "
                f"{from_dir.name} with no through-path")
        ch.send_at(flit, now + 1 + self.cfg.link_latency)
        if flit.is_head:
            flit.packet.flov_hops += 1
            flit.packet.link_hops += 1
            tr = self._tracer
            if tr is not None:
                tr.emit(now, "flov_latch", self.node, flit.packet.pid,
                        from_dir.name)
        acct.on_flov_hop()

    def _adopt_midstream(self, flit: Flit, from_dir: Direction) -> None:
        out_d = OPPOSITE[from_dir]
        if out_d not in self.mesh_ports:
            raise RuntimeError(
                f"mid-packet flit entered router {self.node} with no "
                f"straight-through continuation")
        vc = flit.vc
        owner = self.out_owner[out_d][vc]
        if owner is not None and owner != (from_dir, vc):
            raise RuntimeError(
                f"mid-packet adoption conflict at router {self.node}")
        ivc = self.ivc[from_dir][vc]
        ivc.state = VCState.ACTIVE  # IDLE -> ACTIVE adoption
        self._active_vcs[from_dir] |= 1 << vc
        self._active_ports |= 1 << from_dir
        ivc.out_port = out_d
        ivc.out_vc = vc
        self.out_owner[out_d][vc] = (from_dir, vc)

    def extract_packet(self, in_dir: Direction, vci: int, now: int) -> Packet:
        """Remove a fully-buffered packet from an input VC, crediting the
        upstream for the freed slots (NoRD ring diversion)."""
        vc = self.ivc[in_dir][vci]
        front = vc.front
        assert front is not None and front.is_head
        pkt = front.packet
        assert len(vc.buffer) >= pkt.size, "packet not fully buffered"
        state_before = vc.state
        for _ in range(pkt.size):
            flit = vc.pop(now)
            assert flit.packet is pkt
            self.occupancy -= 1
            self._acct.buffer_reads += 1
            if in_dir != Direction.LOCAL:
                self.out_credit[in_dir].send_at(
                    vci, now + self.cfg.credit_latency)
        state_after = vc.state
        if state_after is not state_before:
            if state_before is VCState.ROUTING:
                self._port_routing[in_dir] -= 1
                self._n_routing -= 1
            elif state_before is VCState.ACTIVE:
                self._clear_active(in_dir, vci)
            if state_after is VCState.ROUTING:
                self._port_routing[in_dir] += 1
                self._n_routing += 1
        self.net._flits -= pkt.size  # packet left the fabric (onto a ring)
        return pkt

    def deliver_credit(self, vc: int, from_dir: Direction, now: int) -> None:
        if self.state <= PowerState.DRAINING:  # inlined ``powered``
            cr = self.credits[from_dir]
            if cr[vc] < self.cfg.buffer_depth:
                cr[vc] += 1
            return
        # sleeping: relay the credit toward the logical upstream router
        if not self.bypass_enabled:
            raise RuntimeError(
                f"credit arrived at gated router {self.node} with no "
                f"relay path (protocol bug)")
        out_d = OPPOSITE[from_dir]
        ch = self.out_credit.get(out_d)
        if ch is None:
            return  # credit for a drained edge path; drop
        ch.send_at(vc, now + self.cfg.credit_latency)
        self.net.accountant.on_credit_relay()
        tr = self._tracer
        if tr is not None:
            tr.emit(now, "credit_relay", self.node, vc, from_dir.name)

    # -- evaluation (phase 2) ----------------------------------------------------

    def evaluate(self, now: int) -> None:
        if self.state > PowerState.DRAINING:  # inlined ``powered``
            return
        # (no idle guard: the active scan skips idle routers, and for
        # ``dense`` the ``occupancy`` test after injection returns)
        ni = self.ni
        if (self._uses_escape and now >= self._esc_next
                and (self._n_routing or self._active_ports)):
            self._escalate_timeouts(now)
        if ni._pending:
            ni.inject(now)
        if self.occupancy == 0:
            return
        if self._n_routing:
            self._vc_allocate(now)
        if self._active_ports:
            self._switch_allocate(now)
        else:
            # keep the round-robin pointer advancing exactly as a no-op
            # full scan would (it is observable at the next contested SA)
            nxt = self._sa_in_ptr + 1
            self._sa_in_ptr = nxt if nxt < self._nports else 0

    # escape-timeout escalation (Duato recovery entry)
    def _escalate_timeouts(self, now: int) -> None:
        """Scan for heads that have waited past ``escape_timeout``.

        Also refreshes ``_esc_next``, a lower bound on the next cycle any
        escalation could fire, letting :meth:`evaluate` skip this scan
        entirely until then.  The bound is safe because ``wait_since`` is
        only ever set to the current cycle: every *future* candidate's
        deadline is ``>= now + timeout + 1``, which caps the bound below.
        Candidates that can never act (escaped packets; granted ejections,
        which the scan deliberately leaves alone) are excluded, otherwise
        a stale past deadline would pin the bound to the present forever.
        """
        timeout = self.cfg.escape_timeout
        esc_next = now + timeout + 1
        pr, act = self._port_routing, self._active_vcs
        for in_dir in self.ports:
            remaining = pr[in_dir] + act[in_dir].bit_count()
            if not remaining:
                continue  # no VC here holds a routed/routing packet
            for vci, vc in enumerate(self.ivc[in_dir]):
                st = vc.state
                if st is VCState.IDLE:
                    continue
                remaining -= 1
                buf = vc.buffer
                front = buf[0] if buf else None
                if front is not None and front.is_head:
                    pkt = front.packet
                    if not pkt.escaped:
                        if now - vc.wait_since > timeout:
                            if st is VCState.ACTIVE:
                                if vc.out_port != Direction.LOCAL:
                                    # ejection can't deadlock; arbiter is
                                    # fair — only re-route non-LOCAL grants
                                    self.out_owner[vc.out_port][vc.out_vc] = \
                                        None
                                    vc.release_route(now)
                                    self._clear_active(in_dir, vci)
                                    pr[in_dir] += 1
                                    self._n_routing += 1
                                    pkt.escaped = True
                                    tr = self._tracer
                                    if tr is not None:
                                        tr.emit(now, "escape", self.node,
                                                pkt.pid)
                            else:
                                pkt.escaped = True
                                tr = self._tracer
                                if tr is not None:
                                    tr.emit(now, "escape", self.node, pkt.pid)
                        elif (st is VCState.ROUTING
                                or vc.out_port != Direction.LOCAL):
                            deadline = vc.wait_since + timeout + 1
                            if deadline < esc_next:
                                esc_next = deadline
                if not remaining:
                    break  # every non-IDLE VC of this port seen
        self._esc_next = esc_next

    # -- VC allocation ------------------------------------------------------

    def _vc_allocate(self, now: int) -> None:
        # a grant is an inlined ``InputVC.allocate`` (ROUTING -> ACTIVE)
        mech = self.mech
        requests: dict[Direction,
                       list[tuple[int, Direction, int, list[int]]]] | None = None
        V = self._V
        pr = self._port_routing
        act = self._active_vcs
        routing, active = VCState.ROUTING, VCState.ACTIVE
        local = Direction.LOCAL
        for pi, in_dir in enumerate(self.ports):
            remaining = pr[in_dir]
            if not remaining:
                continue  # no head awaiting VA at this port
            vcs = self.ivc[in_dir]
            for vci in range(V):
                vc = vcs[vci]
                if vc.state is not routing:
                    continue
                remaining -= 1
                front = vc.buffer[0]  # ROUTING invariant: head at front
                decision = mech.route(self, front, in_dir, now)
                if type(decision) is Hold:
                    if decision.wake_target is not None:
                        mech.request_wakeup(self, decision.wake_target, now)
                else:
                    out_d = decision.out_dir
                    if out_d is local:
                        vc.state = active
                        vc.out_port = local
                        vc.out_vc = 0
                        pr[in_dir] -= 1
                        self._n_routing -= 1
                        act[in_dir] |= 1 << vci
                        self._active_ports |= 1 << in_dir
                        self._acct.arbitrations += 1
                    else:
                        req = (pi * V + vci, in_dir, vci,
                               mech.allowed_vcs(self, front.packet))
                        if requests is None:
                            requests = {out_d: [req]}
                        elif out_d in requests:
                            requests[out_d].append(req)
                        else:
                            requests[out_d] = [req]
                if not remaining:
                    break  # every ROUTING VC of this port handled

        if requests is None:
            return
        total = self._nports * V
        for out_d, reqs in requests.items():
            if len(reqs) > 1:
                ptr = self._va_ptr[out_d]
                reqs.sort(key=lambda r: (r[0] - ptr) % total)
            owners = self.out_owner[out_d]
            granted_any = False
            for key, in_dir, vci, allowed in reqs:
                for ovc in allowed:
                    if owners[ovc] is None:
                        owners[ovc] = (in_dir, vci)
                        vc = self.ivc[in_dir][vci]
                        vc.state = active
                        vc.out_port = out_d
                        vc.out_vc = ovc
                        pr[in_dir] -= 1
                        self._n_routing -= 1
                        act[in_dir] |= 1 << vci
                        self._active_ports |= 1 << in_dir
                        self._acct.arbitrations += 1
                        if not granted_any:
                            self._va_ptr[out_d] = (key + 1) % total
                            granted_any = True
                        break

    # -- switch allocation + traversal ---------------------------------------

    def _clear_active(self, in_dir: Direction, vci: int) -> None:
        """Drop one VC from the ACTIVE masks (cold sites; the switch
        traversal below inlines it)."""
        left = self._active_vcs[in_dir] & ~(1 << vci)
        self._active_vcs[in_dir] = left
        if not left:
            self._active_ports &= ~(1 << in_dir)

    def _switch_allocate(self, now: int) -> None:
        """Separable input-first SA over the ACTIVE VCs, fused with ST.

        The rotation tables yield exactly the masked ports / VCs in the
        order the full rotated ``ports x VCs`` scan would reach them, so
        grants and pointer updates are those of that scan.

        A winner traverses as soon as it is granted, which equals
        granting everything first: a traversal touches its own input port
        (whose VC loop has just ``break``-ed), its output port (now in
        ``taken``), the downstream channels (inlined ``send_at``) and,
        through ``NetworkInterface.eject``, the stats and the node's sink.
        No later grant of this call reads any of them: a sink only queues
        NI work, FLOV's ``request_wakeup`` only pushes a handshake message,
        NoRD's ``on_local_inject_blocked`` only touches its ring.
        """
        V = self._V
        act = self._active_vcs
        paused = self.paused
        credits = self.credits
        ivc = self.ivc
        sa_vc_ptr = self._sa_vc_ptr
        vc_rot = self._vc_rot
        local = Direction.LOCAL
        acct = self._acct
        link_at = now + self._link_delay
        credit_at = now + self._credit_delay
        taken = 0  # bitmask over Direction values of granted output ports
        for in_dir in self._port_rot[self._sa_in_ptr][self._active_ports]:
            vcs = ivc[in_dir]
            for vci in vc_rot[sa_vc_ptr[in_dir]][act[in_dir]]:
                vc = vcs[vci]
                buf = vc.buffer
                if not buf or buf[0].ready > now:
                    continue
                od = vc.out_port
                if taken & (1 << od):
                    continue
                if paused and (pw := paused.get(od)) \
                        and self.logical.get(od) in pw:
                    # (paused: we promised silence to the router we
                    # currently feed while it drains / powers on)
                    continue
                if od is not local:
                    cr = credits[od]
                    ovc = vc.out_vc
                    if cr[ovc] <= 0:
                        continue
                taken |= 1 << od
                sa_vc_ptr[in_dir] = (vci + 1) % V

                # switch traversal
                flit = buf.popleft()
                pkt = flit.packet
                is_tail = flit.is_tail
                if is_tail:
                    # the departing tail frees the VC: ACTIVE -> IDLE, or
                    # straight to ROUTING if the next packet's head is
                    # already queued behind it
                    vc.out_port = None
                    vc.out_vc = -1
                    if buf and buf[0].is_head:
                        vc.state = VCState.ROUTING
                        vc.wait_since = now
                        self._port_routing[in_dir] += 1
                        self._n_routing += 1
                    else:
                        vc.state = VCState.IDLE
                        vc.wait_since = -1
                    left = act[in_dir] & ~(1 << vci)
                    act[in_dir] = left
                    if not left:
                        self._active_ports &= ~(1 << in_dir)
                self.occupancy -= 1
                acct.buffer_reads += 1
                acct.xbar_traversals += 1
                if od is local:
                    self.net._flits -= 1  # flit left the fabric at the NI
                    if flit.is_head:
                        pkt.router_hops += 1
                    if is_tail:
                        self.ni.eject(pkt, now)
                else:
                    acct.link_traversals += 1
                    cr[ovc] -= 1
                    flit.vc = ovc
                    ch = self.out_flit[od]
                    q = ch._q
                    if q and q[-1][0] > link_at:
                        raise ValueError("channel arrivals must be monotone")
                    q.append((link_at, flit))
                    ch.sent += 1
                    wheel = ch.wheel
                    if wheel is not None:
                        bucket = wheel.get(link_at)
                        if bucket is None:
                            wheel[link_at] = [ch]
                        else:
                            bucket.append(ch)
                    if flit.is_head:
                        pkt.router_hops += 1
                        pkt.link_hops += 1
                    if is_tail:
                        self.out_owner[od][ovc] = None
                if in_dir is not local:
                    ch = self.out_credit[in_dir]
                    q = ch._q
                    if q and q[-1][0] > credit_at:
                        raise ValueError("channel arrivals must be monotone")
                    q.append((credit_at, vci))
                    ch.sent += 1
                    wheel = ch.wheel
                    if wheel is not None:
                        bucket = wheel.get(credit_at)
                        if bucket is None:
                            wheel[credit_at] = [ch]
                        else:
                            bucket.append(ch)
                break
        self._sa_in_ptr = (self._sa_in_ptr + 1) % self._nports

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self, pkts) -> dict:
        """All mutable router state (datapath + power + allocator).

        Only ``out_flit``/``out_credit`` channels are serialized: every
        physical channel is aliased into exactly two routers (our out is
        the neighbor's in), so per-router outputs cover each channel
        exactly once.  ``in_flit``/``in_credit`` re-alias automatically
        because restore mutates the shared objects in place.
        """
        from .snapshot import encode_dirmap, encode_flit
        return {
            "state": self.state.name,
            "active": self._active,
            "psr": encode_dirmap(self.psr, lambda s: s.name),
            "logical": encode_dirmap(self.logical),
            "logical_psr": encode_dirmap(self.logical_psr,
                                         lambda s: s.name),
            "psr_epoch": self._psr_epoch,
            "va_ptr": encode_dirmap(self._va_ptr),
            "sa_in_ptr": self._sa_in_ptr,
            "sa_vc_ptr": encode_dirmap(self._sa_vc_ptr),
            "last_local_activity": self.last_local_activity,
            "occupancy": self.occupancy,
            # schema v1 carries per-port flit counts: recounted
            "port_flits": encode_dirmap(
                self.ivc, lambda vcs: sum(len(vc.buffer) for vc in vcs)),
            "port_routing": encode_dirmap(self._port_routing),
            # the ACTIVE masks are derived state: schema v1 carries counts
            "port_active": encode_dirmap(self._active_vcs, int.bit_count),
            "n_routing": self._n_routing,
            "n_active": sum(m.bit_count()
                            for m in self._active_vcs.values()),
            "esc_next": self._esc_next,
            "bypass_enabled": self.bypass_enabled,
            "paused": encode_dirmap(self.paused, lambda s: sorted(s)),
            "credits": encode_dirmap(self.credits, list),
            "out_owner": encode_dirmap(
                self.out_owner,
                lambda vcs: [None if o is None else [int(o[0]), o[1]]
                             for o in vcs]),
            "ivc": encode_dirmap(
                self.ivc,
                lambda vcs: [vc.snapshot_state(pkts) for vc in vcs]),
            "ni": self.ni.snapshot_state(pkts),
            "out_flit": encode_dirmap(
                self.out_flit,
                lambda ch: ch.snapshot_state(lambda f: encode_flit(f, pkts))),
            "out_credit": encode_dirmap(self.out_credit,
                                        lambda ch: ch.snapshot_state()),
        }

    def restore_state(self, data: dict, pkts) -> None:
        from .snapshot import decode_dirmap, decode_flit
        self.state = PowerState[data["state"]]
        self._active = data["active"]
        self.psr = decode_dirmap(data["psr"], lambda s: PowerState[s])
        self.logical = decode_dirmap(data["logical"])
        self.logical_psr = decode_dirmap(data["logical_psr"],
                                         lambda s: PowerState[s])
        self._psr_epoch = data["psr_epoch"]
        self._va_ptr = decode_dirmap(data["va_ptr"])
        self._sa_in_ptr = data["sa_in_ptr"]
        self._sa_vc_ptr = decode_dirmap(data["sa_vc_ptr"])
        self.last_local_activity = data["last_local_activity"]
        self.occupancy = data["occupancy"]
        self._port_routing = decode_dirmap(data["port_routing"])
        self._n_routing = data["n_routing"]
        self._esc_next = data["esc_next"]
        self.bypass_enabled = data["bypass_enabled"]
        self.paused = decode_dirmap(data["paused"], set)
        self.credits = decode_dirmap(data["credits"], list)
        self.out_owner = decode_dirmap(
            data["out_owner"],
            lambda vcs: [None if o is None else (Direction(o[0]), o[1])
                         for o in vcs])
        self._active_ports = 0
        for d, vc_states in decode_dirmap(data["ivc"]).items():
            mask = 0
            for vci, (vc, st) in enumerate(zip(self.ivc[d], vc_states)):
                vc.restore_state(st, pkts)
                if vc.state is VCState.ACTIVE:
                    mask |= 1 << vci
            self._active_vcs[d] = mask
            if mask:
                self._active_ports |= 1 << d
        self.ni.restore_state(data["ni"], pkts)
        for d, ch_state in decode_dirmap(data["out_flit"]).items():
            self.out_flit[d].restore_state(
                ch_state, lambda f: decode_flit(f, pkts))
        for d, ch_state in decode_dirmap(data["out_credit"]).items():
            self.out_credit[d].restore_state(ch_state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Router {self.node} ({self.x},{self.y}) {self.state.name}>"
