"""End-to-end tests of the escape sub-network, timeout escalation, and
behavior under saturation."""

import pytest

from repro import NoCConfig, Network
from repro.gating.schedule import EpochGating
from repro.noc.buffer import VCState
from repro.noc.validation import check_all


def test_blocked_quadrant_packet_escapes():
    """A packet whose quadrant turns are both gated and whose fallback is
    its arrival direction must escalate into the escape VC and still
    arrive (paper SS V's livelock rule + Duato recovery)."""
    cfg = NoCConfig(mechanism="gflov", escape_timeout=16)
    net = Network(cfg)
    # at router 18 heading to 40 (NW): north 26 and west 17 gated
    net.set_gating(EpochGating([(0, {9, 12, 13, 17, 20, 26, 33, 41, 42, 43})]))
    for _ in range(800):
        net.step()
    pkt = net.inject_packet(18, 48)
    for _ in range(1500):
        net.step()
    assert pkt.eject_time > 0


def test_escape_packets_use_escape_vc():
    cfg = NoCConfig(mechanism="gflov", escape_timeout=8)
    net = Network(cfg)
    # 19 -> 48: Y (27) gated forces the X hop to 18; there both quadrant
    # candidates (26, 17) are gated and the fallback East is the arrival
    # direction -> Hold -> timeout -> escape VC
    net.set_gating(EpochGating([(0, {9, 17, 26, 27})]))
    for _ in range(600):
        net.step()
    pkts = [net.inject_packet(19, 48) for _ in range(8)]
    escaped_seen = False
    for _ in range(2500):
        net.step()
        for r in net.routers:
            for d in r.ports:
                for vci, vc in enumerate(r.ivc[d]):
                    if vc.buffer and vc.buffer[0].packet.escaped \
                            and cfg.is_escape_vc(vci):
                        escaped_seen = True
    assert all(p.eject_time > 0 for p in pkts)
    assert any(p.escaped for p in pkts)
    assert escaped_seen


def test_saturation_recovers():
    """Drive the network far past saturation, stop, and verify complete
    drainage with clean invariants (no lost flits, no stuck credits)."""
    import random
    cfg = NoCConfig(mechanism="gflov")
    net = Network(cfg)
    net.set_gating(EpochGating([(0, frozenset(range(0, 36, 3)))]))
    for _ in range(600):
        net.step()
    rng = random.Random(2)
    gated = net.gating.gated_at(0)
    active = [n for n in range(64) if n not in gated]
    for _ in range(600):
        for _ in range(6):  # ~6 packets/cycle: far beyond capacity
            s, d = rng.choice(active), rng.choice(active)
            if s != d:
                net.inject_packet(s, d)
        net.step()
    for _ in range(60_000):
        net.step()
        if (net.stats.packets_ejected == net.stats.packets_injected
                and net.network_drained()):
            break
    assert net.stats.packets_ejected == net.stats.packets_injected
    check_all(net)


def test_baseline_never_escalates():
    """The baseline mechanism has no escape network; even under heavy
    load no packet may be marked escaped."""
    import random
    net = Network(NoCConfig(mechanism="baseline"))
    rng = random.Random(3)
    for _ in range(400):
        for _ in range(4):
            s, d = rng.randrange(64), rng.randrange(64)
            if s != d:
                net.inject_packet(s, d)
        net.step()
    for _ in range(20_000):
        net.step()
        if net.network_drained():
            break
    assert net.stats.escaped_packets == 0
    assert net.stats.packets_ejected == net.stats.packets_injected


def test_escape_vc_reserved_from_injection():
    """FLOV reserves the escape VC: fresh injections may only claim the
    regular VCs."""
    cfg = NoCConfig(mechanism="gflov")
    net = Network(cfg)
    for _ in range(10):
        net.inject_packet(0, 63)
    net.step(3)
    local = net.routers[0].ivc[net.routers[0].ports[-1]]
    assert local[cfg.escape_vc_of(0)].state == VCState.IDLE
    assert not local[cfg.escape_vc_of(0)].buffer


def test_load_latency_curve_monotone():
    """Throughput sanity: average latency grows with offered load."""
    from repro.harness import run_sweep_spec
    from repro.spec import SweepSpec
    out = run_sweep_spec(SweepSpec(mechanisms=["baseline"],
                                   rates=[0.02, 0.12, 0.3],
                                   warmup=500, measure=2500))
    lats = [r.avg_latency for r in out["baseline"]]
    assert lats[0] < lats[1] < lats[2]
    thr = [r.throughput for r in out["baseline"]]
    assert thr[0] < thr[1]
