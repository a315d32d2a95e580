"""Cross-mechanism comparisons on identical traffic (one fixed packet
list), so differences come from the mechanism, not sampling noise."""

import random

import pytest

from repro import NoCConfig, Network
from repro.gating.schedule import EpochGating


def make_trace(seed=12, packets=150, horizon=3000, nodes=64, gated=()):
    """``(cycle, src, dest, size, vnet)`` records, sorted by cycle."""
    rng = random.Random(seed)
    active = [n for n in range(nodes) if n not in set(gated)]
    trace = []
    t = 0
    for _ in range(packets):
        t += rng.randrange(horizon // packets * 2)
        s, d = rng.choice(active), rng.choice(active)
        if s != d:
            trace.append((t, s, d, 4, 0))
    return trace


GATED = frozenset({9, 10, 11, 18, 26, 33, 34, 41, 42, 50})


def run_mech(mech, trace):
    net = Network(NoCConfig(mechanism=mech))
    net.set_gating(EpochGating([(0, GATED)]))
    for _ in range(600):
        net.step()
    # each record is injected at its absolute cycle, or at once if that
    # cycle has passed; then the mesh runs to cycle 600 + last record + 1
    end = net.cycle + trace[-1][0] + 1
    for cycle, src, dest, size, vnet in trace:
        while net.cycle < cycle:
            net.step()
        net.inject_packet(src, dest, size, vnet=vnet)
    while net.cycle < end:
        net.step()
    for _ in range(30_000):
        net.step()
        if net.stats.packets_ejected == net.stats.packets_injected:
            break
    assert net.stats.packets_ejected == len(trace)
    return net


def test_same_trace_all_mechanisms_deliver():
    trace = make_trace(gated=GATED)
    stats = {}
    from repro.config import MECHANISMS
    for mech in MECHANISMS:
        net = run_mech(mech, trace)
        stats[mech] = net.stats.avg_latency
    # identical traffic: the gating mechanisms order as the paper says
    assert stats["gflov"] < stats["rp"]
    assert stats["rflov"] < stats["rp"]


def test_flov_uses_fewer_powered_hops_than_rp():
    trace = make_trace(gated=GATED)
    g = run_mech("gflov", trace)
    rp = run_mech("rp", trace)
    # RP detours through powered routers; gFLOV flies over sleepers
    assert g.stats.router_hops_sum < rp.stats.router_hops_sum
    assert g.stats.flov_hops_sum > 0
    assert rp.stats.flov_hops_sum == 0


def test_static_energy_ordering_on_same_trace():
    trace = make_trace(gated=GATED)
    energies = {}
    from repro.harness import FIGURE_MECHANISMS
    for mech in FIGURE_MECHANISMS:
        net = run_mech(mech, trace)
        energies[mech] = net.accountant.report(net.cycle).static_j
    assert energies["gflov"] < energies["baseline"]
    assert energies["rflov"] < energies["baseline"]
    assert energies["gflov"] <= energies["rp"] * 1.05
