"""Mechanism-layer API tests: registration, VC policies, YX/XY routing."""

import pytest

from repro import NoCConfig, Network
from repro.baselines.yx import xy_route, yx_route
from repro.core.routing import Route
from repro.noc.mechanism import BaselineMechanism
from repro.noc.types import Direction


def test_all_mechanisms_instantiate():
    from repro.config import MECHANISMS
    for m in MECHANISMS:
        net = Network(NoCConfig(mechanism=m))
        assert net.mech.name == m


def test_unknown_mechanism_rejected():
    from repro.registry import MECHANISMS
    with pytest.raises(ValueError, match="unknown mechanism 'quantum'"):
        MECHANISMS.get("quantum")


def test_yx_routes_y_first():
    assert yx_route(2, 2, 5, 5) == Route(Direction.NORTH)
    assert yx_route(2, 5, 5, 5) == Route(Direction.EAST)
    assert yx_route(5, 5, 5, 5) == Route(Direction.LOCAL)
    assert yx_route(2, 2, 2, 0) == Route(Direction.SOUTH)
    assert yx_route(2, 2, 0, 2) == Route(Direction.WEST)


def test_xy_routes_x_first():
    assert xy_route(2, 2, 5, 5) == Route(Direction.EAST)
    assert xy_route(5, 2, 5, 5) == Route(Direction.NORTH)


def test_yx_path_deadlock_free_turns():
    """YX paths never make an X->Y turn (dimension order)."""
    from repro.noc.types import DIR_DELTA
    for sx in range(8):
        for sy in range(8):
            for dx in range(8):
                for dy in range(8):
                    x, y = sx, sy
                    seen_x = False
                    for _ in range(20):
                        dec = yx_route(x, y, dx, dy)
                        d = dec.out_dir
                        if d == Direction.LOCAL:
                            break
                        if d in (Direction.EAST, Direction.WEST):
                            seen_x = True
                        else:
                            assert not seen_x, "X->Y turn under YX routing"
                        ddx, ddy = DIR_DELTA[d]
                        x, y = x + ddx, y + ddy
                    assert (x, y) == (dx, dy)


def test_baseline_uses_all_vcs_for_injection():
    net = Network(NoCConfig(mechanism="baseline"))
    assert net.routers[0].injectable_vcs == net.cfg.vcs_per_vnet


def test_flov_reserves_escape_vc():
    net = Network(NoCConfig(mechanism="gflov"))
    assert net.routers[0].injectable_vcs == net.cfg.num_vcs


def test_allowed_vcs_policies():
    from repro.noc.types import make_packet
    base = Network(NoCConfig(mechanism="baseline", num_vnets=2))
    pkt = make_packet(1, 0, 5, 4, vnet=1)[0].packet
    assert base.mech.allowed_vcs(base.routers[0], pkt) == [4, 5, 6, 7]

    flov = Network(NoCConfig(mechanism="gflov", num_vnets=2))
    assert flov.mech.allowed_vcs(flov.routers[0], pkt) == [4, 5, 6]
    pkt.escaped = True
    assert flov.mech.allowed_vcs(flov.routers[0], pkt) == [7]


def test_gateable_routers():
    flov = Network(NoCConfig(mechanism="gflov"))
    gateable = flov.mech.gateable_routers
    aon = {flov.cfg.node_id(7, y) for y in range(8)}
    assert gateable == frozenset(range(64)) - aon

    base = Network(NoCConfig(mechanism="baseline"))
    assert base.mech.gateable_routers == frozenset()


def test_mechanism_base_noops():
    net = Network(NoCConfig(mechanism="baseline"))
    net.mech.request_wakeup(net.routers[0], 5, 0)  # no-op
    net.mech.on_schedule_change(0, frozenset({5}))  # no-op
    net.mech.step(0)  # no-op
    assert isinstance(net.mech, BaselineMechanism)
