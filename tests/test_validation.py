"""Tests of the invariant checkers themselves: they must flag corrupted
state and pass healthy state."""

import pytest

from repro import NoCConfig, Network
from repro.noc.types import Direction, make_packet
from repro.noc.validation import (check_all, credit_conservation_violations,
                                  pointer_coherence_violations, quiescent,
                                  wormhole_violations)


def fresh_net():
    return Network(NoCConfig())


def test_fresh_network_is_clean():
    net = fresh_net()
    assert credit_conservation_violations(net) == []
    assert wormhole_violations(net) == []
    assert pointer_coherence_violations(net) == []
    assert quiescent(net)
    check_all(net, pointers=True)


def test_credit_checker_detects_leak():
    net = fresh_net()
    net.routers[0].credits[Direction.EAST][0] -= 1
    v = credit_conservation_violations(net)
    assert v and v[0][0] == "credit"
    with pytest.raises(AssertionError, match="credit conservation"):
        check_all(net)


def test_credit_checker_detects_overcount():
    net = fresh_net()
    net.routers[0].credits[Direction.EAST][2] += 1
    assert credit_conservation_violations(net)


def test_wormhole_checker_detects_gap():
    net = fresh_net()
    flits = make_packet(1, 0, 5, 4)
    vc = net.routers[0].ivc[Direction.LOCAL][0]
    vc.buffer.append(flits[0])
    vc.buffer.append(flits[2])  # skipped flit 1
    v = wormhole_violations(net)
    assert any(tag == "order" for tag, *_ in v)


def test_wormhole_checker_detects_interleaving():
    net = fresh_net()
    a = make_packet(1, 0, 5, 2)
    b = make_packet(2, 0, 6, 2)
    vc = net.routers[0].ivc[Direction.LOCAL][0]
    vc.buffer.append(a[0])
    vc.buffer.append(b[0])  # head of b before tail of a
    v = wormhole_violations(net)
    assert any(tag == "boundary" for tag, *_ in v)


def test_pointer_checker_detects_stale_pointer():
    net = Network(NoCConfig(mechanism="gflov"))
    net.routers[0].logical[Direction.EAST] = 3  # truth: 1
    v = pointer_coherence_violations(net)
    assert v and v[0][0] == "pointer"


def test_quiescent_detects_traffic():
    net = fresh_net()
    net.inject_packet(0, 5)
    assert not quiescent(net)
    net.step(200)
    assert quiescent(net)


def test_quiescent_detects_pending_handshake():
    from repro.gating import EpochGating
    net = Network(NoCConfig(mechanism="gflov"))
    net.set_gating(EpochGating([(0, {27})]))
    net.step(30)  # idle threshold not reached; no drain yet
    assert quiescent(net)
    net.step(80)  # drain handshake now in flight
    # either mid-handshake (not quiescent) or already asleep (quiescent)
    net.step(400)
    assert quiescent(net)
