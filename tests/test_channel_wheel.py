"""Tests for the documented-loose ``DelayChannel`` / timing-wheel invariants.

The module docstring of ``noc/channel.py`` promises that stale wheel
registrations (left by ``clear()`` or a manual ``receive()``) are
re-filed or dropped by the activity-driven kernel — never an error —
and that simulator send sites never leave a past-cycle bucket behind.
These tests pin each of those promises down.
"""

import pytest

from repro.config import NoCConfig
from repro.core.power_fsm import PowerState
from repro.gating.schedule import StaticGating
from repro.noc.channel import CreditChannel, DelayChannel
from repro.noc.network import Network
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import get_pattern


class _RecordingSink:
    """Quacks like a power-gated Router for the kernel's credit delivery
    loop (which hands it every credit; a powered router is credited in
    place)."""

    state = PowerState.SLEEP

    def __init__(self):
        self.got = []

    def deliver_credit(self, item, d, now):
        self.got.append((now, item, d))


def _net_with_probe(**cfg_kw):
    """An active-kernel network plus a standalone channel registered in
    its credit wheel (the documented standalone/direct-manipulation
    use)."""
    cfg = NoCConfig(mechanism="baseline", width=2, height=2, seed=0,
                    **cfg_kw)
    net = Network(cfg, kernel="active")
    sink = _RecordingSink()
    ch = CreditChannel(latency=1)
    ch.bind(net._credit_wheel, sink, 0)
    return net, ch, sink


# -- basic wheel registration --------------------------------------------------

def test_send_registers_once_and_delivery_unschedules():
    net, ch, sink = _net_with_probe()
    ch.send_at(7, arrival=3)
    ch.send_at(8, arrival=3)  # same head: still one registration
    assert ch.scheduled
    assert net._credit_wheel[3] == [ch]
    net.step(5)
    assert sink.got == [(3, 7, 0), (3, 8, 0)]
    assert not ch.scheduled
    assert len(ch) == 0


def test_kernel_refiles_channel_at_new_head():
    net, ch, sink = _net_with_probe()
    ch.send_at(1, arrival=2)
    ch.send_at(2, arrival=6)
    net.step(3)
    assert sink.got == [(2, 1, 0)]
    assert ch.scheduled, "channel with in-flight items must stay scheduled"
    assert ch in net._credit_wheel[6]
    net.step(4)
    assert sink.got == [(2, 1, 0), (6, 2, 0)]
    assert not ch.scheduled


# -- stale registrations (clear / manual receive) ------------------------------

def test_clear_leaves_stale_bucket_that_kernel_drops():
    net, ch, sink = _net_with_probe()
    ch.send_at(9, arrival=2)
    ch.clear()
    assert ch.scheduled and len(ch) == 0  # the documented stale state
    net.step(4)  # bucket at 2 comes due: dropped without error
    assert sink.got == []
    assert not ch.scheduled
    # the channel is fully usable again afterwards
    ch.send_at(5, arrival=net.cycle + 2)
    net.step(3)
    assert sink.got == [(6, 5, 0)]


def test_manual_receive_leaves_stale_bucket_that_kernel_drops():
    net, ch, sink = _net_with_probe()
    ch.send_at(4, arrival=2)
    assert ch.receive(2) == [4]  # drained out-of-band
    assert ch.scheduled and len(ch) == 0
    net.step(4)
    assert sink.got == []
    assert not ch.scheduled


def test_cleared_then_resent_channel_is_refiled_not_lost():
    """clear() keeps ``scheduled`` set, so a later send does not
    re-register; the kernel must re-file the old bucket entry at the new
    (future) head instead of dropping the channel on the floor."""
    net, ch, sink = _net_with_probe()
    ch.send_at(1, arrival=2)
    ch.clear()
    ch.send_at(2, arrival=5)  # rides the stale registration
    assert net._credit_wheel.get(5) is None
    net.step(3)  # stale bucket at 2 pops; head (5) not due: re-filed
    assert sink.got == []
    assert ch.scheduled and ch in net._credit_wheel[5]
    net.step(3)
    assert sink.got == [(5, 2, 0)]


# -- channel-local invariants --------------------------------------------------

def test_arrivals_must_be_monotone():
    ch = DelayChannel(latency=1)
    ch.send_at("a", arrival=5)
    with pytest.raises(ValueError):
        ch.send_at("b", arrival=4)
    # equal arrivals are fine (two flits crossing a 1-cycle link on
    # consecutive sends can share a bucket after a stall bump)
    ch.send_at("c", arrival=5)
    assert [i for _, i in ch.peek_arrivals()] == ["a", "c"]


def test_latency_validation_and_len_bool():
    with pytest.raises(ValueError):
        DelayChannel(latency=0)
    ch = DelayChannel(latency=2)
    assert not ch and len(ch) == 0
    ch.send("x", now=0)
    assert ch and len(ch) == 1
    assert ch.sent == 1
    assert ch.receive(1) == []
    assert ch.receive(2) == ["x"]


# -- simulator-wide promise ----------------------------------------------------

@pytest.mark.parametrize("mech", ("baseline", "gflov"))
def test_simulator_never_leaves_past_cycle_buckets(mech):
    """All live wheel buckets are for the future at every step boundary,
    even with power gating clearing channels mid-run (gflov)."""
    cfg = NoCConfig(mechanism=mech, width=4, height=4, seed=3)
    net = Network(cfg, kernel="active")
    net.set_gating(StaticGating(cfg.num_routers, 0.4, seed=3))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.1, seed=3)
    for _ in range(30):
        gen.run(50)
        for wheel in (net._flit_wheel, net._credit_wheel):
            stale = [k for k in wheel if k < net.cycle]
            assert not stale, (
                f"past-cycle buckets {stale} at cycle {net.cycle}")
