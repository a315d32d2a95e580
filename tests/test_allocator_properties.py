"""Property tests for the router's VC and switch allocation.

* The router's VC allocator grants exactly what a reference scan kept
  here grants: requesters for an output in rotated order from
  ``_va_ptr``, each taking its first free allowed VC, the pointer moving
  one past the first winner.  So it grants only requesters, never gives
  an output VC two owners, and rotates.
* The router's separable SA never grants two inputs to one output (and
  never two grants to one input) in any cycle of a randomized run, and
  its mask/table-driven scan grants exactly what a full nested rotated
  scan kept here as the reference grants.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


# -- separable switch allocation (router level) -------------------------------

def _tails(channels) -> dict:
    """``{direction: queue length}``: where each channel's tail is now."""
    return {d: len(ch) for d, ch in channels.items()}


def _sent_since(channels, tails) -> dict:
    """``{direction: [items]}`` appended to each channel since ``tails``
    (nothing pops a router's output queues while it allocates)."""
    out = {}
    for d, ch in channels.items():
        items = [item for _, item in ch.peek_arrivals()][tails[d]:]
        if items:
            out[d] = items
    return out


class _TraversalSpy:
    """Every switch traversal of a run, seen from outside the allocator.

    SA and ST are one method, so each ``Router._switch_allocate`` call is
    observed around it: the flits that left the router's input buffers
    (granted inputs), the items that appeared at the tails of its
    ``out_flit`` queues (granted link outputs) and ``out_credit`` queues
    (credits returned upstream), and the ``NetworkInterface.eject`` calls
    made meanwhile.  A flit that left an input and reached no link went
    to the LOCAL output.
    """

    def __init__(self, monkeypatch):
        from repro.noc.router import NetworkInterface, Router
        from repro.noc.types import Direction

        #: (node, cycle) -> granted input ports / output ports
        self.inputs: dict[tuple[int, int], list] = {}
        self.outputs: dict[tuple[int, int], list] = {}
        #: (node, cycle) -> {input port: (flits popped, credits returned)}
        self.credits: dict[tuple[int, int], dict] = {}
        self.ejects: dict[tuple[int, int], int] = {}
        allocate, eject = Router._switch_allocate, NetworkInterface.eject
        current: list = []

        def spy_allocate(router, now):
            key = (router.node, now)
            before = {(d, i): list(vc.buffer) for d in router.ports
                      for i, vc in enumerate(router.ivc[d])}
            flit_tails = _tails(router.out_flit)
            credit_tails = _tails(router.out_credit)
            current.append(key)
            try:
                allocate(router, now)
            finally:
                current.pop()
            left = []
            for (d, i), flits in before.items():
                n = len(flits) - len(router.ivc[d][i].buffer)
                self.inputs.setdefault(key, []).extend([d] * n)
                left += flits[:n]
            on_links = _sent_since(router.out_flit, flit_tails)
            for d, flits in on_links.items():
                self.outputs.setdefault(key, []).extend([d] * len(flits))
            linked = {id(f) for flits in on_links.values() for f in flits}
            self.outputs.setdefault(key, []).extend(
                Direction.LOCAL for f in left if id(f) not in linked)
            credits = _sent_since(router.out_credit, credit_tails)
            self.credits[key] = {
                d: (self.inputs[key].count(d), len(credits.get(d, ())))
                for d in router.out_credit}

        def spy_eject(ni, pkt, now):
            if current:  # ejections by a traversal (not NI loopback)
                self.ejects[current[-1]] = self.ejects.get(current[-1],
                                                           0) + 1
            return eject(ni, pkt, now)

        monkeypatch.setattr(Router, "_switch_allocate", spy_allocate)
        monkeypatch.setattr(NetworkInterface, "eject", spy_eject)

    def local_grants(self, key) -> int:
        from repro.noc.types import Direction
        return self.outputs.get(key, []).count(Direction.LOCAL)


@pytest.mark.parametrize("mechanism,gated", [("baseline", 0.0),
                                             ("gflov", 0.4)])
def test_sa_one_grant_per_output_and_input(monkeypatch, mechanism, gated):
    """Crossbar constraint: per router and cycle, at most one traversal
    per output port and one per input port — under real traffic."""
    from repro.config import NoCConfig
    from repro.gating.schedule import StaticGating
    from repro.noc.network import Network
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.patterns import get_pattern

    spy = _TraversalSpy(monkeypatch)
    cfg = NoCConfig(mechanism=mechanism, width=4, height=4, seed=3)
    net = Network(cfg)
    net.set_gating(StaticGating(cfg.num_routers, gated, seed=3))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.25, seed=3)
    gen.run(600)

    assert spy.outputs and spy.ejects, "no switch traversals recorded"
    for (node, now), outs in spy.outputs.items():
        assert len(outs) == len(set(outs)), (
            f"router {node} cycle {now}: output granted twice: {outs}")
    for (node, now), ins in spy.inputs.items():
        assert len(ins) == len(set(ins)), (
            f"router {node} cycle {now}: input granted twice: {ins}")
        assert len(ins) == len(spy.outputs.get((node, now), [])), (
            f"router {node} cycle {now}: inputs {ins} vs outputs "
            f"{spy.outputs.get((node, now))}")
    for (node, now), per_port in spy.credits.items():
        for d, (popped, returned) in per_port.items():
            assert popped == returned, (
                f"router {node} cycle {now}: {popped} flits left input "
                f"{d.name}, {returned} credits returned")
    for key, count in spy.ejects.items():
        # a tail ejection is one of the LOCAL-output grants of its cycle
        assert count == 1 == spy.local_grants(key), (
            f"router {key[0]} cycle {key[1]}: {count} ejections for "
            f"{spy.local_grants(key)} LOCAL grants")


# -- mask/table SA vs the nested rotated scan ---------------------------------

def _reference_sa(router, now):
    """The switch allocator as a full scan: every port from
    ``_sa_in_ptr``, every VC of a port from that port's pointer, testing
    ``vc.state`` — no masks, no tables.  Read-only; returns the grants
    ``[(in_dir, vci)]`` in grant order and the pointers after them."""
    from repro.noc.buffer import VCState
    from repro.noc.types import Direction

    ports, nports, V = router.ports, len(router.ports), router._V
    vc_ptr = dict(router._sa_vc_ptr)
    taken: set = set()
    grants = []
    for off in range(nports):
        in_dir = ports[(router._sa_in_ptr + off) % nports]
        base = vc_ptr[in_dir]
        for voff in range(V):
            vci = (base + voff) % V
            vc = router.ivc[in_dir][vci]
            if vc.state is not VCState.ACTIVE:
                continue
            front = vc.front
            if front is None or front.ready > now:
                continue
            od = vc.out_port
            if od in taken:
                continue
            waiting_for = router.paused.get(od)
            if waiting_for and router.logical.get(od) in waiting_for:
                continue
            if od is not Direction.LOCAL and router.credits[od][vc.out_vc] <= 0:
                continue
            taken.add(od)
            grants.append((in_dir, vci))
            vc_ptr[in_dir] = (vci + 1) % V
            break
    return grants, (router._sa_in_ptr + 1) % nports, vc_ptr


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mechanism=st.sampled_from(("baseline", "gflov", "rp", "nord")),
       num_vcs=st.sampled_from((1, 3, 7)),  # 7 + escape: lazy table rows
       gated=st.sampled_from((0.0, 0.3, 0.6)),
       rate=st.floats(0.05, 0.45),
       seed=st.integers(1, 10_000))
def test_sa_matches_reference_scan(monkeypatch, mechanism, num_vcs, gated,
                                   rate, seed):
    """Differential: in every state a run reaches, the mask-driven SA
    grants what the reference scan grants, in the same order, and leaves
    the same round-robin pointers.  Link traversals are read off the
    tail of the flit wheel's ``now + link delay`` bucket (one entry per
    send, in send order) and the output queues; returned credits off the
    ``out_credit`` queue tails."""
    from repro.config import NoCConfig
    from repro.gating.schedule import StaticGating
    from repro.noc.network import Network
    from repro.noc.router import Router
    from repro.noc.types import Direction
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.patterns import get_pattern

    allocate = Router._switch_allocate
    calls = 0

    def checked_allocate(router, now):
        nonlocal calls
        calls += 1
        grants, in_ptr, vc_ptr = _reference_sa(router, now)
        fronts = {(d, i): router.ivc[d][i].buffer[0] for d, i in grants}
        before = {(d, i): len(vc.buffer) for d in router.ports
                  for i, vc in enumerate(router.ivc[d])}
        link_bound = [fronts[g] for g in grants
                      if router.ivc[g[0]][g[1]].out_port
                      is not Direction.LOCAL]
        credit_bound = {d: [vci for in_dir, vci in grants if in_dir is d]
                        for d in router.out_credit}
        at = now + router._link_delay
        entries = len(router.net._flit_wheel.get(at, ()))
        flit_tails = _tails(router.out_flit)
        credit_tails = _tails(router.out_credit)
        allocate(router, now)
        sends = []  # link traversals, in the order they were filed
        position = {id(ch): flit_tails[d]
                    for d, ch in router.out_flit.items()}
        for ch in router.net._flit_wheel.get(at, [])[entries:]:
            sends.append(list(ch.peek_arrivals())[position[id(ch)]][1])
            position[id(ch)] += 1
        popped = {key for key, n in before.items()
                  if len(router.ivc[key[0]][key[1]].buffer) == n - 1}
        where = f"router {router.node} cycle {now}"
        assert popped == set(grants), f"{where}: grants differ"
        assert all(router.ivc[d][i].front is not f
                   for (d, i), f in fronts.items()), where
        assert sends == link_bound, f"{where}: traversal order differs"
        assert len(sends) == sum(map(len, _sent_since(
            router.out_flit, flit_tails).values())), f"{where}: unfiled send"
        credits = _sent_since(router.out_credit, credit_tails)
        assert {d: credits.get(d, []) for d in router.out_credit} \
            == credit_bound, f"{where}: credits returned differ"
        assert router._sa_in_ptr == in_ptr, f"{where}: port pointer"
        assert router._sa_vc_ptr == vc_ptr, f"{where}: VC pointers"

    with monkeypatch.context() as m:
        m.setattr(Router, "_switch_allocate", checked_allocate)
        cfg = NoCConfig(mechanism=mechanism, width=4, height=4,
                        num_vcs=num_vcs, seed=seed)
        net = Network(cfg, kernel="active")
        net.set_gating(StaticGating(cfg.num_routers, gated, seed=seed))
        gen = TrafficGenerator(net, get_pattern("uniform", cfg), rate,
                               seed=seed)
        gen.run(250)
    assert calls, "the run never reached switch allocation"


# -- VC allocation vs the reference rule ---------------------------------------

def _reference_va(router, now):
    """The VC allocator as the rule it implements: the requesters for an
    output ordered by ``(key - _va_ptr[out]) mod nports*V`` (``key`` is
    ``port index * V + vc``), each taking its first free allowed VC, the
    pointer moving one past the first winner; a head routed to LOCAL is
    granted outright.  Read-only (the mechanisms' ``route`` and
    ``allowed_vcs`` are pure functions of router state); returns the
    grants ``{(in_dir, vci): (out_dir, out_vc)}`` and the pointers after
    them."""
    from repro.core.routing import Hold
    from repro.noc.buffer import VCState
    from repro.noc.types import Direction

    V, mech = router._V, router.mech
    total = len(router.ports) * V
    grants = {}
    requests: dict = {}
    for pi, in_dir in enumerate(router.ports):
        for vci, vc in enumerate(router.ivc[in_dir]):
            if vc.state is not VCState.ROUTING:
                continue
            head = vc.buffer[0]
            decision = mech.route(router, head, in_dir, now)
            if type(decision) is Hold:
                continue
            if decision.out_dir is Direction.LOCAL:
                grants[(in_dir, vci)] = (Direction.LOCAL, 0)
                continue
            requests.setdefault(decision.out_dir, []).append(
                (pi * V + vci, in_dir, vci,
                 mech.allowed_vcs(router, head.packet)))
    va_ptr = dict(router._va_ptr)
    for out_d, reqs in requests.items():
        ptr = va_ptr[out_d]
        owners = list(router.out_owner[out_d])
        first = None
        for key, in_dir, vci, allowed in sorted(
                reqs, key=lambda r: (r[0] - ptr) % total):
            ovc = next((o for o in allowed if owners[o] is None), None)
            if ovc is None:
                continue
            owners[ovc] = (in_dir, vci)
            grants[(in_dir, vci)] = (out_d, ovc)
            if first is None:
                first = key
        if first is not None:
            va_ptr[out_d] = (first + 1) % total
    return grants, va_ptr


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mechanism=st.sampled_from(("baseline", "gflov", "rp", "nord")),
       num_vcs=st.sampled_from((1, 3, 7)),
       gated=st.sampled_from((0.0, 0.3, 0.6)),
       rate=st.floats(0.05, 0.45),
       seed=st.integers(1, 10_000))
def test_va_matches_reference_scan(monkeypatch, mechanism, num_vcs, gated,
                                   rate, seed):
    """Differential: in every state a run reaches, ``Router._vc_allocate``
    grants exactly what :func:`_reference_va` grants and leaves the same
    ``_va_ptr``.  Hence VA moves only requesting (ROUTING) VCs, gives each
    output VC at most one owner, charges one arbitration per grant, and
    rotates its priority."""
    from repro.config import NoCConfig
    from repro.gating.schedule import StaticGating
    from repro.noc.buffer import VCState
    from repro.noc.network import Network
    from repro.noc.router import Router
    from repro.noc.types import Direction
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.patterns import get_pattern

    allocate = Router._vc_allocate
    calls = moved = 0

    def checked_allocate(router, now):
        nonlocal calls, moved
        calls += 1
        grants, va_ptr = _reference_va(router, now)
        states = {(d, i): vc.state for d in router.ports
                  for i, vc in enumerate(router.ivc[d])}
        owners = {d: list(o) for d, o in router.out_owner.items()}
        pointers = dict(router._va_ptr)
        arbitrations = router._acct.arbitrations
        allocate(router, now)
        where = f"router {router.node} cycle {now}"
        changed = {}
        for (d, i), before in states.items():
            vc = router.ivc[d][i]
            if vc.state is not before:
                assert (before, vc.state) == (VCState.ROUTING,
                                              VCState.ACTIVE), where
                changed[(d, i)] = (vc.out_port, vc.out_vc)
        assert changed == grants, f"{where}: grants differ"
        for out_d, now_owners in router.out_owner.items():
            new = {ovc: o for ovc, o in enumerate(now_owners)
                   if o != owners[out_d][ovc]}
            assert all(owners[out_d][ovc] is None for ovc in new), (
                f"{where}: {out_d.name} VC granted while owned")
            assert new == {ovc: k for k, (d, ovc) in grants.items()
                           if d is out_d and d is not Direction.LOCAL}, where
        assert router._acct.arbitrations - arbitrations == len(grants), where
        assert router._va_ptr == va_ptr, f"{where}: VA pointers"
        moved += va_ptr != pointers

    with monkeypatch.context() as m:
        m.setattr(Router, "_vc_allocate", checked_allocate)
        cfg = NoCConfig(mechanism=mechanism, width=4, height=4,
                        num_vcs=num_vcs, seed=seed)
        net = Network(cfg, kernel="active")
        net.set_gating(StaticGating(cfg.num_routers, gated, seed=seed))
        gen = TrafficGenerator(net, get_pattern("uniform", cfg), rate,
                               seed=seed)
        gen.run(250)
    assert calls, "the run never reached VC allocation"
    assert moved, "VA never moved a round-robin pointer"
