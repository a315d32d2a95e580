"""NoRD detail tests: ring timing, energy accounting, drain conditions."""

from repro import NoCConfig, Network
from repro.baselines.nord import BypassRing
from repro.core.power_fsm import PowerState
from repro.gating.schedule import EpochGating
from repro.noc.types import make_packet


def test_ring_hop_timing():
    net = Network(NoCConfig(mechanism="nord"))
    ring = net.mech.ring
    pkt = make_packet(1, 0, 2, 4)[0].packet
    ring.insert(pkt, 0, now=net.cycle)
    # serpentine row 0: 0 -> 1 -> 2, two hops at 2 cycles each after entry
    start = net.cycle
    for _ in range(40):
        net.step()
        if pkt.eject_time > 0:
            break
    assert pkt.eject_time > 0
    assert pkt.eject_time - start == pytest_approx_hops(2)


def pytest_approx_hops(hops):
    # entry latch + per-hop cycles (+1 ejection bookkeeping)
    return BypassRing.HOP_CYCLES * (hops + 1) + 1


def test_ring_energy_charged_per_flit_hop():
    net = Network(NoCConfig(mechanism="nord"))
    ring = net.mech.ring
    pkt = make_packet(1, 0, 1, 4)[0].packet
    before_latch = net.accountant.flov_latches
    ring.insert(pkt, 0, now=net.cycle)
    for _ in range(20):
        net.step()
        if pkt.eject_time > 0:
            break
    # one latch charge per flit per ring station traversed
    assert net.accountant.flov_latches - before_latch == pkt.size * pkt.flov_hops


def test_ring_wraps_around():
    """The last ring station forwards to the first: one hop."""
    net = Network(NoCConfig(mechanism="nord"))
    ring = net.mech.ring
    pkt = make_packet(1, ring.order[-1], ring.order[0], 4)[0].packet
    ring.insert(pkt, ring.order[-1], now=net.cycle)
    start = net.cycle
    for _ in range(40):
        net.step()
        if pkt.eject_time > 0:
            break
    assert pkt.eject_time - start == pytest_approx_hops(1)


def test_nord_drain_waits_for_credits():
    """A NoRD router must not sleep while credits are still in flight
    back to it (there is no relay path to recover them)."""
    net = Network(NoCConfig(mechanism="nord", idle_threshold=8))
    net.set_gating(EpochGating([(0, {27})]))
    pkt = net.inject_packet(26, 28)  # traffic through 27 before it gates
    for _ in range(2000):
        net.step()
        if net.routers[27].state == PowerState.SLEEP:
            break
    assert pkt.eject_time > 0
    assert net.routers[27].state == PowerState.SLEEP
    depth = net.cfg.buffer_depth
    # neighbors' counters toward 27 stayed intact through the transition
    from repro.noc.types import Direction
    r26 = net.routers[26]
    assert r26.credits[Direction.EAST] == [depth] * net.cfg.total_vcs


def test_nord_gated_router_counts_as_rp_sleep_power():
    net = Network(NoCConfig(mechanism="nord"))
    net.set_gating(EpochGating([(0, {27})]))
    for _ in range(600):
        net.step()
    assert net.accountant.n_rp_sleep == 1


def test_nord_diversions_counted():
    net = Network(NoCConfig(mechanism="nord"))
    net.set_gating(EpochGating([(0, {2})]))
    for _ in range(600):
        net.step()
    net.inject_packet(1, 3)
    for _ in range(600):
        net.step()
    assert net.mech.diversions >= 1
    assert net.mech.ring.packets_carried >= 1
