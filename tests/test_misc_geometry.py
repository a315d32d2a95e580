"""Odd-geometry and configuration-corner tests."""

import random

import pytest

from repro import NoCConfig, Network
from repro.gating.schedule import EpochGating
from repro.noc.validation import check_all


@pytest.mark.parametrize("mech", ["rflov", "gflov"])
@pytest.mark.parametrize("w,h", [(6, 3), (3, 6), (5, 5)])
def test_flov_on_non_square_meshes(mech, w, h):
    """FLOV's AON column and routing work for any mesh shape."""
    cfg = NoCConfig(width=w, height=h, mechanism=mech)
    net = Network(cfg)
    rng = random.Random(9)
    aon = {cfg.node_id(cfg.resolved_aon_column, y) for y in range(h)}
    candidates = [n for n in range(cfg.num_routers) if n not in aon]
    gated = frozenset(rng.sample(candidates, len(candidates) // 3))
    net.set_gating(EpochGating([(0, gated)]))
    for _ in range(500):
        net.step()
    active = [n for n in range(cfg.num_routers) if n not in gated]
    for _ in range(30):
        s, d = rng.choice(active), rng.choice(active)
        if s != d:
            net.inject_packet(s, d)
    for _ in range(4000):
        net.step()
    assert net.stats.packets_ejected == net.stats.packets_injected
    check_all(net)


def test_custom_aon_column():
    """The AON column can be any column; east of it must stay reachable."""
    cfg = NoCConfig(mechanism="gflov", aon_column=7)
    net = Network(cfg)
    assert net.mech.hsc.aon_nodes == {cfg.node_id(7, y) for y in range(8)}


def test_gflov_wall_of_sleepers():
    """An entire interior column gated: cross-wall traffic flies over."""
    cfg = NoCConfig(mechanism="gflov")
    net = Network(cfg)
    wall = {cfg.node_id(3, y) for y in range(8)}
    net.set_gating(EpochGating([(0, frozenset(wall))]))
    for _ in range(2500):
        net.step()
    from repro.core.power_fsm import PowerState
    sleeping = sum(net.routers[n].state == PowerState.SLEEP for n in wall)
    assert sleeping >= 6  # corners of the wall row are edge nodes, still ok
    pkt = net.inject_packet(cfg.node_id(1, 4), cfg.node_id(6, 4))
    for _ in range(400):
        net.step()
    assert pkt.eject_time > 0
    assert pkt.flov_hops >= 1
    check_all(net)


def test_rp_wall_keeps_connectivity():
    cfg = NoCConfig(mechanism="rp")
    net = Network(cfg)
    wall = {cfg.node_id(3, y) for y in range(8)}
    net.set_gating(EpochGating([(0, frozenset(wall))]))
    # aggressive RP must keep at least one router of the wall on, or the
    # mesh splits in two
    assert len(net.mech.parked & wall) < len(wall)
    pkt = net.inject_packet(0, 63)
    for _ in range(500):
        net.step()
    assert pkt.eject_time > 0


def test_min_mesh_with_gating():
    cfg = NoCConfig(width=2, height=2, mechanism="gflov")
    net = Network(cfg)
    net.set_gating(EpochGating([(0, {0})]))
    for _ in range(500):
        net.step()
    pkt = net.inject_packet(1, 3)
    for _ in range(200):
        net.step()
    assert pkt.eject_time > 0


def test_wide_flits_config():
    cfg = NoCConfig(flit_width_bytes=32, mechanism="gflov")
    net = Network(cfg)
    pkt = net.inject_packet(0, 9)
    for _ in range(200):
        net.step()
    assert pkt.eject_time > 0
    # wider datapath -> higher static power
    from repro.power.accounting import EnergyAccountant
    assert net.accountant.router_w > EnergyAccountant(NoCConfig()).router_w
