"""Property tests for ``repro.noc.allocators`` and the router's
separable switch allocation.

* ``RoundRobinArbiter`` never grants a non-requesting line, rotates
  priority after a grant, and starves no persistent requester over a
  randomized request schedule.
* ``MatrixArbiter`` grants only actual requesters and rotates.
* The router's separable SA never grants two inputs to one output (and
  never two grants to one input) in any cycle of a randomized run, and
  its mask/table-driven scan grants exactly what a full nested rotated
  scan kept here as the reference grants.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc.allocators import MatrixArbiter, RoundRobinArbiter

STEPS = 400


# -- RoundRobinArbiter --------------------------------------------------------

def test_rr_grant_subset_of_requests():
    rng = random.Random(11)
    arb = RoundRobinArbiter(5)
    for _ in range(STEPS):
        reqs = [rng.random() < 0.4 for _ in range(5)]
        g = arb.grant(reqs)
        if g == -1:
            assert not any(reqs)
        else:
            assert reqs[g], "granted a non-requesting line"


def test_rr_rotates_priority_after_grant():
    arb = RoundRobinArbiter(4)
    # everyone requests forever: grants must cycle 0,1,2,3,0,1,...
    grants = [arb.grant([True] * 4) for _ in range(8)]
    assert grants == [0, 1, 2, 3, 0, 1, 2, 3]


def test_rr_winner_loses_priority():
    arb = RoundRobinArbiter(3)
    assert arb.grant([True, False, True]) == 0
    # line 0 requests again, but 2 now outranks it
    assert arb.grant([True, False, True]) == 2
    assert arb.grant([True, False, True]) == 0


def test_rr_no_starvation_random_schedule():
    """A persistent requester is granted within ``size`` grant rounds."""
    rng = random.Random(5)
    size = 6
    arb = RoundRobinArbiter(size)
    waits = 0
    max_wait = 0
    for _ in range(2000):
        reqs = [rng.random() < 0.7 for _ in range(size)]
        reqs[3] = True  # line 3 always requests
        g = arb.grant(reqs)
        assert g != -1
        if g == 3:
            max_wait = max(max_wait, waits)
            waits = 0
        else:
            waits += 1
    # round-robin bound: at most size-1 other grants between two grants
    assert max_wait <= size - 1, f"line 3 starved for {max_wait} grants"


def test_rr_single_line_and_validation():
    arb = RoundRobinArbiter(1)
    assert arb.grant([True]) == 0
    assert arb.grant([False]) == -1
    with pytest.raises(ValueError):
        arb.grant([True, False])
    with pytest.raises(ValueError):
        RoundRobinArbiter(0)


# -- MatrixArbiter ------------------------------------------------------------

def test_matrix_grants_only_requesters():
    rng = random.Random(7)
    arb = MatrixArbiter()
    pop = ["a", "b", "c", "d"]
    for _ in range(STEPS):
        reqs = [p for p in pop if rng.random() < 0.5]
        w = arb.grant(reqs)
        if reqs:
            assert w in reqs
        else:
            assert w is None


def test_matrix_rotation_no_starvation():
    arb = MatrixArbiter()
    wins = {p: 0 for p in "abc"}
    for _ in range(30):
        wins[arb.grant(["a", "b", "c"])] += 1
    assert wins == {"a": 10, "b": 10, "c": 10}


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
