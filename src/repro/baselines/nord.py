"""NoRD-style node-router decoupling (Chen & Pinkston, MICRO 2012).

NoRD power-gates routers independently of their NIs: every NI sits on a
unidirectional *bypass ring* (ejection channel -> injection channel of
the next node, threading through gated routers' bypass latches), so the
network stays connected even with every router off.

Model (simplifications documented in DESIGN.md):

* Mesh routing is XY among powered routers; when a packet's next XY hop
  is power-gated, the packet waits until it is fully buffered at its
  current router, then diverts onto the ring and rides it to the
  destination NI.
* The ring visits all nodes in serpentine order, 2 cycles per hop
  (bypass latch + link), one packet leaving each ring station per cycle;
  per-node ring FIFOs are unbounded, abstracting NoRD's dateline VC
  (ring deadlock freedom is assumed, not modeled).
* Routers drain and gate like rFLOV but without the adjacency
  restriction and without fly-over links (the ring replaces them);
  wakeups are immediate on core reactivation.

The critique the paper levels at NoRD — ring latency is O(N), so it does
not scale to large meshes — is reproduced in the ablation benches.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..core.power_fsm import PowerState
from ..core.routing import HOLD, Decision, Route
from ..noc.buffer import VCState
from ..noc.mechanism import Mechanism
from ..noc.types import OPPOSITE, Direction, Flit, Packet
from .yx import xy_route

if TYPE_CHECKING:  # pragma: no cover
    from ..noc.network import Network
    from ..noc.router import Router


def serpentine_order(width: int, height: int) -> list[int]:
    """Boustrophedon node order for the bypass ring."""
    order = []
    for y in range(height):
        row = range(width) if y % 2 == 0 else range(width - 1, -1, -1)
        order.extend(y * width + x for x in row)
    return order


class BypassRing:
    """Unidirectional NI-to-NI ring with 2-cycle hops."""

    HOP_CYCLES = 2

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.order = serpentine_order(net.cfg.width, net.cfg.height)
        self.pos = {n: i for i, n in enumerate(self.order)}
        self.queues: list[deque] = [deque() for _ in self.order]
        #: bitmask of ring slots whose queue is non-empty (derived state:
        #: :meth:`step` walks its set bits instead of every slot)
        self.busy = 0
        self.packets_carried = 0
        self.hops_total = 0

    def insert(self, pkt: Packet, at_node: int, now: int) -> None:
        self.packets_carried += 1
        if pkt.inject_time < 0:
            pkt.inject_time = now
        slot = self.pos[at_node]
        self.queues[slot].append((now + self.HOP_CYCLES, pkt))
        self.busy |= 1 << slot

    def step(self, now: int) -> None:
        # Slots in ascending order, as a scan of all of them would: a
        # packet that arrives in a slot during this walk is due two
        # cycles from now, so skipping a slot that was empty at the
        # start misses nothing.
        busy = self.busy
        if not busy:
            return
        acct = self.net.accountant
        n = len(self.order)
        while busy:
            low = busy & -busy
            busy ^= low
            i = low.bit_length() - 1
            q = self.queues[i]
            if q[0][0] > now:
                continue
            _, pkt = q.popleft()
            if not q:
                self.busy &= ~low
            acct.on_flov_hop(pkt.size)
            pkt.flov_hops += 1
            self.hops_total += 1
            node = self.order[i]
            if node == pkt.dest:
                self.net.routers[node].ni.eject(pkt, now)
            else:
                nxt = (i + 1) % n
                self.queues[nxt].append((now + self.HOP_CYCLES, pkt))
                self.busy |= 1 << nxt

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues)


class NordMechanism(Mechanism):
    name = "nord"

    def __init__(self, net: "Network") -> None:
        super().__init__(net)
        self.ring = BypassRing(net)
        self.gated_cores: frozenset[int] = frozenset()
        self._protected: frozenset[int] = frozenset()
        self._draining: set[int] = set()
        #: gated, unprotected cores whose router is still ACTIVE, in
        #: ``gated_cores`` order: the only nodes :meth:`step` has to poll
        #: for an idle drain (derived state, see :meth:`_refresh_candidates`)
        self._drain_candidates: list[int] = []
        self.diversions = 0

    @property
    def protected(self) -> frozenset[int]:
        """Routers that never gate (full-system memory controllers)."""
        return self._protected

    @protected.setter
    def protected(self, nodes: frozenset[int]) -> None:
        self._protected = nodes
        self._refresh_candidates()

    def _refresh_candidates(self) -> None:
        """Recompute the drain-candidate list; called wherever one of its
        three inputs changes (schedule, protection, a drain starting —
        every other transition to ACTIVE is of an ungated core)."""
        routers = self.net.routers
        self._drain_candidates = [
            node for node in self.gated_cores
            if node not in self._protected
            and routers[node].state == PowerState.ACTIVE]

    # -- power management ---------------------------------------------------

    def _broadcast_psr(self, node: int, state: PowerState) -> None:
        r = self.net.routers[node]
        for d in r.mesh_ports:
            nb = self.net.routers[r.neighbor_id(d)]
            nb.psr[OPPOSITE[d]] = state
            nb._psr_epoch += 1

    def on_schedule_change(self, now: int, gated: frozenset[int]) -> None:
        self.gated_cores = gated
        for node in range(self.cfg.num_routers):
            r = self.net.routers[node]
            if node not in gated and r.state == PowerState.SLEEP:
                r.state = PowerState.ACTIVE
                r.bypass_enabled = True
                r.last_local_activity = now
                self.net.accountant.note_transition(now, frm="rp_sleep",
                                                    to="on")
                tr = self.net._tracer
                if tr is not None:
                    tr.emit(now, "power", node, "SLEEP", "ACTIVE",
                            "core_ungated", ())
                self._broadcast_psr(node, PowerState.ACTIVE)
        self._refresh_candidates()

    def step(self, now: int) -> None:
        self.ring.step(now)
        self._divert_blocked(now)
        cfg = self.cfg
        started = False
        for node in self._drain_candidates:
            r = self.net.routers[node]
            if (now - r.last_local_activity >= cfg.idle_threshold
                    and not r.ni.pending_flits):
                r.state = PowerState.DRAINING
                self._draining.add(node)
                started = True
                tr = self.net._tracer
                if tr is not None:
                    tr.emit(now, "power", node, "ACTIVE", "DRAINING",
                            "idle_drain", ())
                self._broadcast_psr(node, PowerState.DRAINING)
        if started:
            self._refresh_candidates()
        if not self._draining:
            return
        for node in list(self._draining):
            r = self.net.routers[node]
            if node not in self.gated_cores:
                r.state = PowerState.ACTIVE
                self._draining.discard(node)
                tr = self.net._tracer
                if tr is not None:
                    tr.emit(now, "power", node, "DRAINING", "ACTIVE",
                            "core_ungated", ())
                self._broadcast_psr(node, PowerState.ACTIVE)
                continue
            depth = cfg.buffer_depth
            if (r.buffers_empty()
                    and not any(len(ch) for ch in r.in_flit.values())
                    and not self._neighbors_sending_to(r)
                    and all(c == depth for cr in r.credits.values()
                            for c in cr)
                    and not any(len(ch) for ch in r.in_credit.values())):
                r.state = PowerState.SLEEP
                r.bypass_enabled = False  # no mesh through-path when off
                self.net.accountant.note_transition(now, frm="on",
                                                    to="rp_sleep")
                self._draining.discard(node)
                tr = self.net._tracer
                if tr is not None:
                    tr.emit(now, "power", node, "DRAINING", "SLEEP",
                            "drain_complete", ())
                self._broadcast_psr(node, PowerState.SLEEP)

    def _neighbors_sending_to(self, r: "Router") -> bool:
        """Any neighbor mid-packet toward ``r``? (The drain-done wires of
        the real handshake, modeled with global visibility.)"""
        for d in r.mesh_ports:
            nb = self.net.routers[r.neighbor_id(d)]
            if nb.powered and nb.in_flight_toward(OPPOSITE[d]):
                return True
        return False

    def _divert_blocked(self, now: int) -> None:
        """Move fully-buffered packets whose XY path is blocked onto the
        ring (NoRD's bypass entry through the ejection channel)."""
        routers = self.net.routers
        # the kernel's active mask is a superset of the routers holding
        # flits (activation invariant), walked in ascending node order
        mask = self.net._active_mask
        while mask:
            low = mask & -mask
            mask ^= low
            r = routers[low.bit_length() - 1]
            if not r._n_routing or not r.powered:
                continue
            for in_dir in r.ports:
                if not r._port_routing[in_dir]:
                    continue
                for vci, vc in enumerate(r.ivc[in_dir]):
                    if vc.state is not VCState.ROUTING:
                        continue
                    pkt = vc.buffer[0].packet  # ROUTING: head at front
                    if not self._blocked(r, pkt):
                        continue
                    if len(vc.buffer) < pkt.size:
                        continue  # wait for the tail to arrive
                    r.extract_packet(in_dir, vci, now)
                    self.ring.insert(pkt, r.node, now)
                    self.diversions += 1

    def _blocked(self, router: "Router", pkt: Packet) -> bool:
        dx, dy = self.cfg.node_xy(pkt.dest)
        dec = xy_route(router.x, router.y, dx, dy)
        assert isinstance(dec, Route)
        if dec.out_dir == Direction.LOCAL:
            return False
        return router.psr.get(dec.out_dir) != PowerState.ACTIVE

    # -- routing -------------------------------------------------------------

    def route(self, router: "Router", head: Flit, in_dir: Direction,
              now: int) -> Decision:
        pkt = head.packet
        dx, dy = self.cfg.node_xy(pkt.dest)
        dec = xy_route(router.x, router.y, dx, dy)
        assert isinstance(dec, Route)
        if dec.out_dir == Direction.LOCAL:
            return dec
        if router.psr.get(dec.out_dir) == PowerState.ACTIVE:
            return dec
        return HOLD  # step() diverts it onto the ring once complete

    def on_local_inject_blocked(self, router: "Router") -> None:
        # NoRD's NI is decoupled: outbound packets of a gated node enter
        # the bypass ring directly through the injection channel
        for pkt in router.ni.take_pending_packets():
            self.ring.insert(pkt, router.node, self.net.cycle)

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self, pkts) -> dict:
        ring = self.ring
        return {
            "ring": {
                "queues": [[[due, pkts.ref(pkt)] for due, pkt in q]
                           for q in ring.queues],
                "packets_carried": ring.packets_carried,
                "hops_total": ring.hops_total,
            },
            "gated_cores": sorted(self.gated_cores),
            "protected": sorted(self.protected),
            "draining": sorted(self._draining),
            "diversions": self.diversions,
        }

    def restore_state(self, data: dict, pkts) -> None:
        ring = self.ring
        rd = data["ring"]
        ring.queues = [deque((due, pkts.get(pid)) for due, pid in q)
                       for q in rd["queues"]]
        ring.packets_carried = rd["packets_carried"]
        ring.hops_total = rd["hops_total"]
        ring.busy = sum(1 << i for i, q in enumerate(ring.queues) if q)
        self.gated_cores = frozenset(data["gated_cores"])
        self._draining = set(data["draining"])
        self.diversions = data["diversions"]
        # last: the candidate list reads gated_cores and router states
        # (Network.restore_state restores routers before the mechanism)
        self.protected = frozenset(data["protected"])
