"""Message-level handshake protocol tests: arbitration, PSR updates,
credit snapshots, wake requests, watchdogs."""

import pytest

from repro import NoCConfig, Network
from repro.core.handshake import Msg
from repro.core.power_fsm import PowerState
from repro.gating.schedule import EpochGating
from repro.noc.types import Direction


def make(mech="gflov", **kw):
    net = Network(NoCConfig(mechanism=mech, **kw))
    return net, net.mech.hsc


def test_power_fsm_predicates():
    # the router's inline ``state <= DRAINING`` test: the baseline
    # pipeline runs exactly while ACTIVE or DRAINING; the FLOV latch
    # datapath forwards in the other two states, SLEEP and WAKEUP
    powered = {s for s in PowerState if s <= PowerState.DRAINING}
    assert powered == {PowerState.ACTIVE, PowerState.DRAINING}
    assert set(PowerState) - powered == {PowerState.SLEEP, PowerState.WAKEUP}


def test_message_delay_is_hop_distance():
    net, hsc = make()
    hsc._send(0, 0, 3, Msg("wake_req", 0))
    (when, _, dst, _), = hsc._heap
    assert when == 3 and dst == 3  # 3 hops -> 3 cycles


def test_handshake_energy_charged_per_hop():
    net, hsc = make()
    before = net.accountant.handshake_hops
    hsc._send(0, 0, 5, Msg("wake_req", 0))
    assert net.accountant.handshake_hops == before + 5


def test_may_drain_conditions():
    net, hsc = make()
    r = net.routers[27]
    # not gated -> no
    assert not hsc._may_drain(r, 1000)
    hsc.gated_cores = frozenset({27})
    # idle threshold not met
    r.last_local_activity = 990
    assert not hsc._may_drain(r, 1000)
    r.last_local_activity = 0
    assert hsc._may_drain(r, 1000)


def test_may_drain_blocked_by_transitioning_neighbor():
    net, hsc = make()
    hsc.gated_cores = frozenset({27})
    r = net.routers[27]
    r.last_local_activity = 0
    r.psr[Direction.EAST] = PowerState.DRAINING
    assert not hsc._may_drain(r, 1000)
    r.psr[Direction.EAST] = PowerState.ACTIVE
    r.logical_psr[Direction.WEST] = PowerState.WAKEUP
    assert not hsc._may_drain(r, 1000)


def test_rflov_may_not_drain_next_to_sleeper():
    net, hsc = make("rflov")
    hsc.gated_cores = frozenset({27})
    r = net.routers[27]
    r.last_local_activity = 0
    r.psr[Direction.EAST] = PowerState.SLEEP
    assert not hsc._may_drain(r, 1000)


def test_gflov_may_drain_next_to_sleeper():
    net, hsc = make("gflov")
    hsc.gated_cores = frozenset({27})
    r = net.routers[27]
    r.last_local_activity = 0
    r.psr[Direction.EAST] = PowerState.SLEEP
    r.logical[Direction.EAST] = 29
    assert hsc._may_drain(r, 1000)


def test_drain_drain_arbitration_lower_id_wins():
    """Adjacent routers 27 and 28 drain simultaneously: id arbitration
    lets the lower id (27) proceed first; in gFLOV 28 then follows."""
    net, hsc = make()
    net.set_gating(EpochGating([(0, {27, 28})]))
    r27, r28 = net.routers[27], net.routers[28]
    slept = {}
    for _ in range(2000):
        net.step()
        for node, r in ((27, r27), (28, r28)):
            if node not in slept and r.state == PowerState.SLEEP:
                slept[node] = net.cycle
        if len(slept) == 2:
            break
    assert slept[27] < slept[28], "lower id must win the arbitration"


def test_wake_req_rate_limited():
    net, hsc = make()
    r = net.routers[24]
    hsc.request_wakeup(r, 27, now=100)
    n1 = len(hsc._heap)
    hsc.request_wakeup(r, 27, now=101)  # within interval: suppressed
    assert len(hsc._heap) == n1
    hsc.request_wakeup(r, 27, now=100 + hsc.wake_req_interval)
    assert len(hsc._heap) == n1 + 1


def test_sleep_message_carries_credit_snapshot():
    net, hsc = make()
    net.set_gating(EpochGating([(0, {27})]))
    r27 = net.routers[27]
    # pre-load an artificial credit count to observe the snapshot
    for _ in range(400):
        net.step()
    assert r27.state == PowerState.SLEEP
    r26 = net.routers[26]
    # 26's eastward credits must now mirror 27's old view of 28
    assert r26.credits[Direction.EAST] == [net.cfg.buffer_depth] * net.cfg.total_vcs
    assert r26.logical[Direction.EAST] == 28
    assert r26.logical_psr[Direction.EAST] == PowerState.ACTIVE


def test_edge_router_sleep_zeroes_outward_credits():
    """When an edge-adjacent router sleeps, the neighbor's credits toward
    the dead-end direction are zeroed (nothing lies beyond)."""
    net, hsc = make()
    net.set_gating(EpochGating([(0, {8})]))  # (0,1): west edge
    for _ in range(500):
        net.step()
    assert net.routers[8].state == PowerState.SLEEP
    r9 = net.routers[9]
    assert r9.credits[Direction.WEST] == [0] * net.cfg.total_vcs


def test_drain_watchdog_aborts_stuck_drain():
    net, hsc = make()
    net.set_gating(EpochGating([(0, {27})]))
    for _ in range(80):
        net.step()
        if net.routers[27].state == PowerState.DRAINING:
            break
    assert net.routers[27].state == PowerState.DRAINING
    # forge a pending drain_done that never arrives (29 is powered but
    # owes nothing, so it will never reply)
    hsc._drainers[27].pending.add(29)
    for _ in range(hsc.drain_watchdog + 200):
        net.step()
        if net.routers[27].state == PowerState.ACTIVE:
            break
    assert net.routers[27].state == PowerState.ACTIVE
    assert hsc._drain_backoff.get(27, 0) > net.cycle - 10


def test_wakeup_timer_respects_latency():
    net, _ = make(wakeup_latency=40)
    net.set_gating(EpochGating([(0, {27}), (500, frozenset())]))
    net.step(500)
    assert net.routers[27].state == PowerState.SLEEP
    woke_at = None
    for _ in range(400):
        net.step()
        if net.routers[27].state == PowerState.ACTIVE:
            woke_at = net.cycle
            break
    assert woke_at is not None
    assert woke_at - 500 >= 40


def test_obligation_requires_channel_empty():
    net, hsc = make()
    r26 = net.routers[26]
    hsc._obligations[(26, 27)] = (Direction.EAST, "drain", 1)
    # put a flit on 26's east link
    from repro.noc.types import make_packet
    flit = make_packet(1, 26, 28, 1)[0]
    r26.out_flit[Direction.EAST].send_at(flit, 10**9)
    hsc._check_observers(0)
    assert (26, 27) in hsc._obligations  # channel busy: no drain_done yet
    r26.out_flit[Direction.EAST].clear()
    hsc._check_observers(1)
    assert (26, 27) not in hsc._obligations
