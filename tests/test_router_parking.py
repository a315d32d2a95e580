"""Router Parking mechanism tests: parking policy, reconfiguration
protocol, Phase-I stall behavior."""

import pytest

from repro import NoCConfig, Network
from repro.core.power_fsm import PowerState
from repro.gating.schedule import EpochGating
from repro.noc.validation import check_all


def make_net(**kw):
    kw.setdefault("mechanism", "rp")
    return Network(NoCConfig(**kw))


def test_initial_parking_applied_immediately():
    net = make_net()
    net.set_gating(EpochGating([(0, {27, 28, 35})]))
    assert net.mech.parked
    for node in net.mech.parked:
        assert net.routers[node].state == PowerState.SLEEP
        assert not net.routers[node].bypass_enabled


def test_parking_preserves_connectivity():
    net = make_net()
    gated = set(range(64)) - {0, 63}
    net.set_gating(EpochGating([(0, gated)]))
    # every active endpoint must be routable
    tables = net.mech.tables
    assert 63 in tables[0]
    assert 0 in tables[63]


def test_aggressive_parks_all_safe_candidates():
    net = make_net()
    net.set_gating(EpochGating([(0, {9, 18, 27, 36, 45, 54})]))
    # a sparse diagonal can be fully parked without disconnecting the mesh
    assert net.mech.parked == frozenset({9, 18, 27, 36, 45, 54})


def test_adaptive_policy_parks_fewer():
    gated = frozenset(range(0, 40))
    agg = make_net(rp_policy="aggressive")
    agg.set_gating(EpochGating([(0, gated)]))
    ada = make_net(rp_policy="adaptive")
    ada.set_gating(EpochGating([(0, gated)]))
    assert len(ada.mech.parked) <= len(agg.mech.parked)


def test_routing_tables_built_once_per_configuration(monkeypatch):
    """A network that receives its schedule at cycle 0 builds one set of
    up*/down* tables (the schedule's); one that never receives a
    schedule builds the all-on set when it first routes."""
    import repro.baselines.router_parking as rp_mod
    from repro.baselines.updown import build_tables

    built = []
    real = rp_mod.build_tables

    def counting(cfg, on_nodes, root):
        built.append(on_nodes)
        return real(cfg, on_nodes, root)

    monkeypatch.setattr(rp_mod, "build_tables", counting)
    net = make_net()
    net.set_gating(EpochGating([(0, {9, 10, 17, 18})]))
    assert built == [frozenset(range(64)) - net.mech.parked]

    built.clear()
    idle = make_net()
    assert built == []
    pkt = idle.inject_packet(0, 63)
    idle.step(100)
    assert pkt.eject_time > 0
    assert built == [frozenset(range(64))]
    assert idle.mech.tables == build_tables(idle.cfg, frozenset(range(64)),
                                            0)


def test_packets_route_around_parked():
    net = make_net()
    net.set_gating(EpochGating([(0, {9, 10, 17, 18})]))
    pkt = net.inject_packet(0, 27)
    for _ in range(300):
        net.step()
    assert pkt.eject_time > 0
    check_all(net)


def test_reconfiguration_stalls_injections():
    """During Phase I no new packet may enter the network (paper Fig 10)."""
    net = make_net()
    net.set_gating(EpochGating([(0, frozenset()), (100, {27})]))
    net.step(100)
    assert net.injection_frozen is False
    net.step(5)
    assert net.injection_frozen is True
    pkt = net.inject_packet(0, 5)
    net.step(200)  # still inside the 700-cycle Phase I
    assert pkt.inject_time == -1
    net.step(600)
    assert net.injection_frozen is False
    assert pkt.eject_time > 0
    # queueing delay visible in packet latency
    assert pkt.latency > 500


def test_reconfiguration_duration_at_least_phase1():
    net = make_net(rp_reconfig_latency=700)
    net.set_gating(EpochGating([(0, frozenset()), (50, {27})]))
    for _ in range(2000):
        net.step()
    (start, applied), = net.mech.reconfig_log
    assert start == 50
    assert applied - start >= 700


def test_unparking_restores_router():
    net = make_net()
    net.set_gating(EpochGating([(0, {27}), (200, frozenset())]))
    net.step(150)
    assert net.routers[27].state == PowerState.SLEEP
    net.step(1200)
    assert net.routers[27].state == PowerState.ACTIVE
    assert net.routers[27].bypass_enabled
    pkt = net.inject_packet(26, 28)
    for _ in range(100):
        net.step()
    assert pkt.eject_time > 0


def test_queued_packets_to_newly_parked_dropped():
    net = make_net()
    net.set_gating(EpochGating([(0, frozenset()), (40, {27})]))
    net.step(45)  # freeze in effect
    assert net.injection_frozen
    net.inject_packet(0, 27)  # queued, destination will be parked
    net.step(1500)
    assert net.stats.packets_dropped == 1


def test_rp_energy_accounting():
    net = make_net()
    net.set_gating(EpochGating([(0, {27, 28})]))
    assert net.accountant.n_rp_sleep == len(net.mech.parked)
    net.step(100)
    rep = net.accountant.report(net.cycle)
    assert rep.static_j > 0


def test_mc_protection():
    net = make_net()
    net.mech.protected = frozenset({0, 7, 56, 63})
    net.set_gating(EpochGating([(0, set(range(64)))]))
    for node in (0, 7, 56, 63):
        assert node not in net.mech.parked


def test_rp_static_power_decreases_with_parking():
    free = make_net()
    free.set_gating(EpochGating([(0, frozenset())]))
    free.step(1000)
    parked = make_net()
    parked.set_gating(EpochGating([(0, frozenset(range(32)))]))
    parked.step(1000)
    p_free = free.accountant.report(free.cycle).static_j
    p_parked = parked.accountant.report(parked.cycle).static_j
    assert p_parked < p_free
