"""Power model and energy accounting tests."""

import pytest

from repro.config import TECH, NoCConfig
from repro.noc.network import Network
from repro.power.accounting import EnergyAccountant
from repro.power.dsent import link_static_w, router_breakdown


# --------------------------------------------------------------- DSENT model

def test_router_breakdown_calibration():
    """Table-I router: the model yields 4.460 mW static, buffers first."""
    bd = router_breakdown(NoCConfig())
    assert 3.5e-3 < bd.baseline_total < 6.0e-3
    assert round(bd.baseline_total * 1e3, 3) == 4.460
    assert bd.buffers > bd.crossbar > 0
    assert bd.flov_overhead > 0


def test_flov_overhead_about_three_percent():
    """Paper SS V-A: FLOV additions are ~3% of the router."""
    bd = router_breakdown(NoCConfig())
    ratio = bd.flov_overhead / bd.baseline_total
    assert 0.01 < ratio < 0.06
    assert EnergyAccountant(NoCConfig()).flov_sleep_w == bd.flov_overhead


def test_breakdown_scales_with_buffers():
    small = router_breakdown(NoCConfig(buffer_depth=2))
    big = router_breakdown(NoCConfig(buffer_depth=12))
    assert big.buffers > 2 * small.buffers


def test_breakdown_scales_with_vcs():
    few = router_breakdown(NoCConfig(num_vcs=1))
    many = router_breakdown(NoCConfig(num_vcs=7))
    assert many.buffers > few.buffers


def test_link_static_scales_with_width():
    narrow = link_static_w(NoCConfig(flit_width_bytes=8))
    wide = link_static_w(NoCConfig(flit_width_bytes=32))
    assert wide == pytest.approx(4 * narrow)


def test_power_config_for_derives_statics():
    """The accountant prices its configuration from the DSENT model."""
    acct = EnergyAccountant(NoCConfig())
    assert acct.router_w == router_breakdown(NoCConfig()).baseline_total
    assert acct.link_w == link_static_w(NoCConfig())
    assert acct.flov_sleep_w < 0.1 * acct.router_w
    assert acct.rp_sleep_w < acct.flov_sleep_w
    assert (acct.num_routers, acct.num_links) == (64, 224)


# --------------------------------------------------------------- accounting

def make_acct():
    return EnergyAccountant(NoCConfig())


def test_static_integration_all_on():
    acct = make_acct()
    acct.sync(1000)
    rep = acct.report(1000)
    expected = 1000 * TECH.cycle_time_s * (64 * acct.router_w
                                           + 224 * acct.link_w)
    assert rep.static_j == pytest.approx(expected)


def test_transition_changes_static_slope():
    acct = make_acct()
    acct.sync(100)
    acct.note_transition(100, frm="on", to="flov_sleep")
    acct.sync(200)
    rep = acct.report(200)
    seg1 = 100 * TECH.cycle_time_s * (64 * acct.router_w
                                      + 224 * acct.link_w)
    seg2 = 100 * TECH.cycle_time_s * (63 * acct.router_w
                                      + acct.flov_sleep_w
                                      + 224 * acct.link_w)
    assert rep.static_j == pytest.approx(seg1 + seg2)
    assert acct.gating_events == 1


def test_negative_population_raises():
    acct = make_acct()
    with pytest.raises(RuntimeError):
        acct.note_transition(0, frm="rp_sleep", to="on")


def test_dynamic_event_energy():
    acct = make_acct()
    # the datapath bumps these counters inline, one per event
    acct.buffer_writes += 1
    acct.buffer_reads += 1
    acct.xbar_traversals += 1
    acct.link_traversals += 1
    acct.flov_latches += 1
    acct.arbitrations += 1
    acct.on_credit_relay()
    acct.on_handshake(3)
    p = TECH
    expected = (p.buffer_write_j + p.buffer_read_j + p.xbar_j + p.link_j
                + p.flov_latch_j + p.arbiter_j + p.credit_relay_j
                + 3 * p.handshake_j)
    assert acct.dynamic_j == pytest.approx(expected)


def test_window_reset():
    acct = make_acct()
    acct.xbar_traversals += 1
    acct.sync(500)
    acct.reset_window(500)
    rep = acct.report(500)
    assert rep.cycles == 0
    assert rep.dynamic_j == 0
    assert rep.static_j == 0
    acct.sync(600)
    assert acct.report(600).cycles == 100


def test_gating_overhead_energy():
    acct = make_acct()
    acct.note_transition(10, frm="on", to="flov_sleep")
    acct.note_transition(20, frm="flov_sleep", to="on")
    rep = acct.report(30)
    assert rep.gating_j == pytest.approx(2 * TECH.gating_overhead_j)


def test_power_report_watts():
    acct = make_acct()
    acct.sync(2000)
    rep = acct.report(2000)
    p = rep.power_w(TECH.cycle_time_s)
    static_w = 64 * acct.router_w + 224 * acct.link_w
    assert p["static"] == pytest.approx(static_w)
    assert p["total"] >= p["static"]


def test_ring_hop_charges_every_flit_of_the_packet():
    """NoRD's bypass ring moves a whole packet per hop and charges it in
    one bulk call: the counters must read what one ``on_flov_hop()`` per
    flit reads."""
    from repro.noc.types import make_packet

    net = Network(NoCConfig(mechanism="nord", width=2, height=2))
    ring = net.mech.ring
    assert ring.order == [0, 1, 3, 2]
    pkt = make_packet(1, 0, 3, 4)[0].packet  # 4 flits, three ring hops
    ring.insert(pkt, 0, now=0)
    reference = make_acct()
    for now in (2, 4, 6):
        ring.step(now)
        for _ in range(pkt.size):
            reference.on_flov_hop()
        assert net.accountant.counters() == reference.counters()
    assert pkt.eject_time == 7 and pkt.flov_hops == 3 and not len(ring)
    assert reference.counters()["flov_latches"] == 12


#: (static_j, dynamic_j, gating_j) as ``float.hex()`` for the scripted
#: accountant below.  Every figure runs at 16 B flits and 6-deep buffers,
#: where both scale factors are exactly 1.0, so these are the only
#: pins on the flit-width and depth scaling and on the link count.
PINNED_ENERGIES = {
    "table1": ({}, ("0x1.01da6c3a08dadp-21", "0x1.b8c98f16ffec4p-28",
                    "0x1.3761b6a1acaf0p-35")),
    "wide_deep": (dict(flit_width_bytes=32, buffer_depth=12),
                  ("0x1.69fa1de0ae1cfp-20", "0x1.b59cccc97ca30p-27",
                   "0x1.3761b6a1acaf0p-35")),
    "narrow_shallow": (dict(flit_width_bytes=8, buffer_depth=2, num_vcs=1,
                            width=3, height=5),
                       ("0x1.19c3e351b1e82p-25", "0x1.bf2313b2067ebp-29",
                        "0x1.3761b6a1acaf0p-35")),
}


@pytest.mark.parametrize("name", PINNED_ENERGIES)
def test_priced_energies_are_pinned(name):
    """A run's accountant, driven by fixed counters, one FLOV sleep and
    one RP park, reports exactly the joules the model has always priced."""
    overrides, expected = PINNED_ENERGIES[name]
    acct = Network(NoCConfig(**overrides)).accountant
    acct.buffer_writes = 1000
    acct.buffer_reads = 990
    acct.xbar_traversals = 980
    acct.arbitrations = 500
    acct.link_traversals = 1200
    acct.flov_latches = 70
    acct.credit_relays = 30
    acct.handshake_hops = 45
    acct.note_transition(400, frm="on", to="flov_sleep")
    acct.note_transition(900, frm="on", to="rp_sleep")
    rep = acct.report(2000)
    assert (rep.static_j.hex(), rep.dynamic_j.hex(),
            rep.gating_j.hex()) == expected
