"""NoRD-style bypass-ring baseline tests."""

import pytest

from repro import NoCConfig, Network
from repro.baselines.nord import BypassRing, serpentine_order
from repro.core.power_fsm import PowerState
from repro.gating.schedule import EpochGating
from repro.noc.types import make_packet


def make_net(**kw):
    kw.setdefault("mechanism", "nord")
    return Network(NoCConfig(**kw))


def test_serpentine_visits_all_nodes_adjacently():
    order = serpentine_order(8, 8)
    assert sorted(order) == list(range(64))
    cfg = NoCConfig()
    for a, b in zip(order, order[1:]):
        ax, ay = cfg.node_xy(a)
        bx, by = cfg.node_xy(b)
        assert abs(ax - bx) + abs(ay - by) == 1


def test_ring_distance():
    """The ring is unidirectional: one station forward is one hop, one
    station back is the long way round (every station visited once)."""
    net = make_net()
    ring = net.mech.ring
    order = ring.order
    ahead = make_packet(1, order[0], order[1], 1)[0].packet
    behind = make_packet(2, order[1], order[0], 1)[0].packet
    ring.insert(ahead, order[0], now=net.cycle)
    ring.insert(behind, order[1], now=net.cycle)
    for _ in range(BypassRing.HOP_CYCLES * (len(order) + 2)):
        net.step()
    # one latch-and-forward per station visited, the entry station included
    assert ahead.flov_hops == 1 + 1
    assert behind.flov_hops == len(order) - 1 + 1
    assert ahead.eject_time > 0 and behind.eject_time > 0


def test_nord_gates_routers():
    net = make_net()
    net.set_gating(EpochGating([(0, {27, 28, 35})]))
    for _ in range(600):
        net.step()
    assert net.routers[27].state == PowerState.SLEEP
    assert not net.routers[27].bypass_enabled


def test_delivery_to_gated_node_via_ring():
    """NoRD's decoupling: the NI of a gated router still receives."""
    net = make_net()
    net.set_gating(EpochGating([(0, {27})]))
    for _ in range(600):
        net.step()
    pkt = net.inject_packet(26, 27)
    for _ in range(800):
        net.step()
    assert pkt.eject_time > 0
    assert net.routers[27].state == PowerState.SLEEP  # never woke
    assert net.mech.ring.packets_carried >= 1


def test_mesh_path_blocked_diverts():
    net = make_net()
    net.set_gating(EpochGating([(0, {2})]))  # block the XY path 1 -> 3
    for _ in range(600):
        net.step()
    pkt = net.inject_packet(1, 3)
    for _ in range(800):
        net.step()
    assert pkt.eject_time > 0
    assert net.mech.diversions >= 1


def test_all_mesh_path_on_stays_off_ring():
    net = make_net()
    net.set_gating(EpochGating([(0, {27})]))
    for _ in range(600):
        net.step()
    pkt = net.inject_packet(0, 5)  # row 0 untouched
    for _ in range(300):
        net.step()
    assert pkt.eject_time > 0
    assert pkt.flov_hops == 0  # pure mesh


def test_nord_churn_delivers_everything():
    from repro.gating.schedule import random_epochs
    from repro.traffic import TrafficGenerator, get_pattern

    cfg = NoCConfig(mechanism="nord")
    net = Network(cfg)
    net.set_gating(random_epochs(64, [0.3, 0.6, 0.2], [1500, 3000], seed=5))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.03, seed=5)
    gen.run(4500)
    for _ in range(5000):
        net.step()
    assert net.stats.packets_ejected == net.stats.packets_injected


def test_ring_latency_scales_with_mesh():
    """The paper's critique: the bypass ring is O(N)."""
    lat = {}
    for k in (4, 8):
        cfg = NoCConfig(width=k, height=k, mechanism="nord")
        net = Network(cfg)
        gated = frozenset({cfg.node_id(1, 1)})
        net.set_gating(EpochGating([(0, gated)]))
        for _ in range(600):
            net.step()
        pkt = net.inject_packet(cfg.node_id(1, 0), cfg.node_id(1, 1))
        for _ in range(2000):
            net.step()
        assert pkt.eject_time > 0
        lat[k] = pkt.network_latency
    assert lat[8] > lat[4]
