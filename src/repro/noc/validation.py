"""Runtime invariant checkers for the NoC simulator.

These are used by the test suite and are handy when developing new
mechanisms. They have *global* visibility (unlike the hardware), so they
can cross-check the distributed state:

* **credit conservation** — for every powered router and direction, the
  credit counter plus flits in flight plus downstream buffer occupancy
  plus credits in flight must equal the buffer depth, per VC.
* **wormhole integrity** — each input VC's buffer holds contiguous flits
  of whole packets, in order.
* **pointer coherence** — every powered router's logical neighbor
  pointer names the nearest powered router along that direction (only
  guaranteed when no handshake is in flight — check at quiescence).
* **derived state** — every counter, flag and bitmask the hot paths
  maintain incrementally equals a recount from the state it summarises
  (holds between any two cycles).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ..core.power_fsm import PowerState
from .buffer import VCState
from .types import DIR_DELTA, OPPOSITE

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


def credit_conservation_violations(net: "Network") -> list[tuple]:
    """Check per-VC credit conservation along every powered segment.

    Segments with a transitioning (DRAINING/WAKEUP) endpoint are skipped —
    their counters are mid-resync by design. Returns a list of violation
    tuples (empty when the invariant holds).
    """
    cfg = net.cfg
    out: list[tuple] = []
    for u in net.routers:
        if u.state != PowerState.ACTIVE:
            continue
        for d in u.mesh_ports:
            ln = u.logical.get(d)
            if ln is None:
                continue
            lr = net.routers[ln]
            if lr.state != PowerState.ACTIVE:
                continue
            dd, path = net._walk(u.node, ln)
            if dd != d:
                continue
            if any(not net.routers[n].powered and net.routers[n].state
                   != PowerState.SLEEP for n in path[1:]):
                continue  # relay mid-transition
            in_flight: dict[int, int] = {}
            for n in path:
                ch = net.routers[n].out_flit.get(d)
                if ch:
                    for _, f in ch.peek_arrivals():
                        in_flight[f.vc] = in_flight.get(f.vc, 0) + 1
            credits_back: dict[int, int] = {}
            _, rpath = net._walk(ln, u.node)
            od = OPPOSITE[d]
            for n in rpath:
                ch = net.routers[n].out_credit.get(od)
                if ch:
                    for _, vc in ch.peek_arrivals():
                        credits_back[vc] = credits_back.get(vc, 0) + 1
            for vc in range(cfg.total_vcs):
                total = (u.credits[d][vc] + in_flight.get(vc, 0)
                         + credits_back.get(vc, 0)
                         + len(lr.ivc[od][vc]))
                if total != cfg.buffer_depth:
                    out.append(("credit", u.node, d.name, vc, ln, total))
    return out


def wormhole_violations(net: "Network") -> list[tuple]:
    """Every buffered VC must hold in-order contiguous flits of packets."""
    out: list[tuple] = []
    for r in net.routers:
        for d in r.ports:
            for vci, vc in enumerate(r.ivc[d]):
                prev = None
                for flit in vc.buffer:
                    if prev is not None:
                        same = flit.packet is prev.packet
                        if same and flit.index != prev.index + 1:
                            out.append(("order", r.node, d.name, vci,
                                        prev.index, flit.index))
                        if not same and not (prev.is_tail and flit.is_head):
                            out.append(("boundary", r.node, d.name, vci))
                    prev = flit
                if (vc.state == VCState.IDLE and vc.buffer
                        and vc.buffer[0].is_head):
                    out.append(("idle-head", r.node, d.name, vci))
    return out


def pointer_coherence_violations(net: "Network") -> list[tuple]:
    """Logical pointers must name the nearest powered router (quiescent)."""
    cfg = net.cfg
    out: list[tuple] = []
    for r in net.routers:
        if not r.powered:
            continue
        for d in r.mesh_ports:
            dx, dy = DIR_DELTA[d]
            x, y = r.x + dx, r.y + dy
            expected = None
            while 0 <= x < cfg.width and 0 <= y < cfg.height:
                node = cfg.node_id(x, y)
                if net.routers[node].powered:
                    expected = node
                    break
                x += dx
                y += dy
            if r.logical.get(d) != expected:
                out.append(("pointer", r.node, d.name,
                            r.logical.get(d), expected))
    return out


def derived_state_violations(net: "Network") -> list[tuple]:
    """Recount everything the kernels keep incrementally.

    Per router: the active flag against the network's mask bit (and
    work implies membership in the scan), ``occupancy`` against the
    buffers, ``_port_routing`` / ``_n_routing`` and the ACTIVE masks
    ``_active_vcs`` / ``_active_ports`` against ``vc.state``.  Per
    wheel-bound channel and arrival cycle: at least one timing-wheel
    entry per queued item.  For NoRD: the ring's busy-slot mask against
    its queues and the drain-candidate list against a full scan over
    ``gated_cores``.
    """
    out: list[tuple] = []
    entries = Counter((id(ch), cycle)
                      for wheel in (net._flit_wheel, net._credit_wheel)
                      for cycle, bucket in wheel.items() for ch in bucket)
    mask = net._active_mask
    for r in net.routers:
        for d, ch in (*r.out_flit.items(), *r.out_credit.items()):
            if ch.wheel is not None:
                queued = Counter(arrival for arrival, _ in ch.peek_arrivals())
                for arrival, n in queued.items():
                    if entries[id(ch), arrival] < n:
                        out.append(("wheel", r.node, d.name, arrival,
                                    entries[id(ch), arrival], n))
        if r._active != bool(mask >> r.node & 1):
            out.append(("active-flag", r.node))
        if (r.occupancy or r.ni._pending) and not r._active:
            out.append(("work-but-inactive", r.node))
        n_routing = occupancy = active_ports = 0
        for d in r.ports:
            routing = active = 0
            for vci, vc in enumerate(r.ivc[d]):
                occupancy += len(vc.buffer)
                if vc.state is VCState.ROUTING:
                    routing += 1
                elif vc.state is VCState.ACTIVE:
                    active |= 1 << vci
            if r._port_routing[d] != routing:
                out.append(("port_routing", r.node, d.name,
                            r._port_routing[d], routing))
            if r._active_vcs[d] != active:
                out.append(("active_vcs", r.node, d.name,
                            r._active_vcs[d], active))
            n_routing += routing
            if active:
                active_ports |= 1 << d
        if r.occupancy != occupancy:
            out.append(("occupancy", r.node, r.occupancy, occupancy))
        if r._n_routing != n_routing:
            out.append(("n_routing", r.node, r._n_routing, n_routing))
        if r._active_ports != active_ports:
            out.append(("active_ports", r.node, r._active_ports,
                        active_ports))
    mech = net.mech
    ring = getattr(mech, "ring", None)
    if ring is not None:
        busy = sum(1 << i for i, q in enumerate(ring.queues) if q)
        if ring.busy != busy:
            out.append(("ring-busy", ring.busy, busy))
        candidates = [n for n in mech.gated_cores
                      if n not in mech.protected
                      and net.routers[n].state == PowerState.ACTIVE]
        if mech._drain_candidates != candidates:
            out.append(("drain-candidates", mech._drain_candidates,
                        candidates))
    return out


def quiescent(net: "Network") -> bool:
    """No flits anywhere (buffers, links, NIs) and no handshakes pending."""
    if not net.network_drained():
        return False
    if any(r.ni.pending_flits for r in net.routers):
        return False
    mech = net.mech
    hsc = getattr(mech, "hsc", None)
    if hsc is not None:
        if hsc._heap or hsc._drainers or hsc._wakers or hsc._obligations:
            return False
    ring = getattr(mech, "ring", None)  # NoRD bypass ring carries packets
    if ring is not None and len(ring):
        return False
    return True


def check_all(net: "Network", *, pointers: bool = False) -> None:
    """Raise AssertionError on any invariant violation."""
    v = credit_conservation_violations(net)
    assert not v, f"credit conservation violated: {v[:5]}"
    v = wormhole_violations(net)
    assert not v, f"wormhole integrity violated: {v[:5]}"
    v = derived_state_violations(net)
    assert not v, f"derived state drifted: {v[:5]}"
    if pointers:
        v = pointer_coherence_violations(net)
        assert not v, f"pointer coherence violated: {v[:5]}"
