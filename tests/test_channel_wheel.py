"""Tests for the documented-loose ``DelayChannel`` / timing-wheel contract.

The module docstring of ``noc/channel.py`` promises that every queued
item has a wheel entry at its arrival cycle, that the activity-driven
kernel pops one due item per entry and drops stale entries (left by
``clear()`` or a manual ``receive()``) — never an error — and that
simulator send sites never leave a past-cycle bucket behind.  These
tests pin each of those promises down.
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


def _entries(wheel, ch):
    """``{cycle: entries of ch}`` over a wheel's live buckets."""
    out = {}
    for cycle, bucket in wheel.items():
        n = sum(1 for c in bucket if c is ch)
        if n:
            out[cycle] = n
    return out


# -- one entry per in-flight item ----------------------------------------------

def test_send_files_one_entry_per_item():
    net, ch, sink = _net_with_probe()
    ch.send_at(7, arrival=3)
    ch.send_at(8, arrival=3)  # same arrival: a second entry, same bucket
    ch.send_at(9, arrival=4)
    assert net._credit_wheel[3] == [ch, ch]
    assert _entries(net._credit_wheel, ch) == {3: 2, 4: 1}
    net.step(6)
    assert sink.got == [(3, 7, 0), (3, 8, 0), (4, 9, 0)]
    assert len(ch) == 0
    assert _entries(net._credit_wheel, ch) == {}


def test_each_item_delivered_at_its_own_arrival():
    """An item behind the head is delivered by its own entry, on time;
    nothing is re-filed when the head's bucket pops."""
    net, ch, sink = _net_with_probe()
    ch.send_at(1, arrival=2)
    ch.send_at(2, arrival=6)
    net.step(3)
    assert sink.got == [(2, 1, 0)]
    assert _entries(net._credit_wheel, ch) == {6: 1}
    net.step(4)
    assert sink.got == [(2, 1, 0), (6, 2, 0)]
    assert _entries(net._credit_wheel, ch) == {}


def test_buckets_list_channels_in_send_order():
    """Within a cycle, items are delivered in the order they were sent,
    not grouped by channel."""
    net, a, sink = _net_with_probe()
    b = CreditChannel(latency=1)
    b.bind(net._credit_wheel, sink, 1)
    a.send_at("a1", arrival=3)
    b.send_at("b1", arrival=3)
    a.send_at("a2", arrival=3)
    assert net._credit_wheel[3] == [a, b, a]
    net.step(4)
    assert sink.got == [(3, "a1", 0), (3, "b1", 1), (3, "a2", 0)]


def test_reschedule_files_every_queued_item():
    """Restores rebuild the wheel from queue contents: one entry per
    queued item, at its arrival."""
    net, ch, sink = _net_with_probe()
    ch.send_at(1, arrival=2)
    ch.send_at(2, arrival=2)
    ch.send_at(3, arrival=5)
    net._credit_wheel.clear()
    ch.reschedule()
    assert _entries(net._credit_wheel, ch) == {2: 2, 5: 1}
    net.step(6)
    assert sink.got == [(2, 1, 0), (2, 2, 0), (5, 3, 0)]


# -- stale entries (clear / an out-of-band pop, as a link outage makes) -------

def test_clear_leaves_stale_bucket_that_kernel_drops():
    net, ch, sink = _net_with_probe()
    ch.send_at(9, arrival=2)
    ch.clear()
    assert len(ch) == 0 and _entries(net._credit_wheel, ch) == {2: 1}
    net.step(4)  # bucket at 2 comes due: the stale entry is dropped
    assert sink.got == []
    assert _entries(net._credit_wheel, ch) == {}
    # the channel is fully usable again afterwards
    ch.send_at(5, arrival=net.cycle + 2)
    net.step(3)
    assert sink.got == [(6, 5, 0)]


def test_manual_receive_leaves_stale_bucket_that_kernel_drops():
    net, ch, sink = _net_with_probe()
    ch.send_at(4, arrival=2)
    assert ch._q.popleft() == (2, 4)  # drained out-of-band
    assert len(ch) == 0 and _entries(net._credit_wheel, ch) == {2: 1}
    net.step(4)
    assert sink.got == []
    assert _entries(net._credit_wheel, ch) == {}


@pytest.mark.parametrize("resend_at", (2, 3, 5))
def test_cleared_then_resent_item_delivered_once_on_time(resend_at):
    """After clear(), an item re-sent at the stale entry's cycle, one
    later, or further out is delivered exactly once, at its own arrival:
    the stale entry pops nothing (its head is not due, or the item's own
    entry already took it)."""
    net, ch, sink = _net_with_probe()
    ch.send_at(1, arrival=2)
    ch.clear()
    ch.send_at(2, arrival=resend_at)
    net.step(resend_at + 2)
    assert sink.got == [(resend_at, 2, 0)]
    assert len(ch) == 0 and _entries(net._credit_wheel, ch) == {}


def test_stale_entry_does_not_pop_an_item_before_its_arrival():
    """A stale entry met while a later item is queued leaves it alone:
    the head is not due, so it waits for its own entry."""
    net, ch, sink = _net_with_probe()
    ch.send_at(1, arrival=2)
    assert ch._q.popleft() == (2, 1)  # drained out-of-band
    ch.send_at(2, arrival=4)
    net.step(3)  # cycle 2: stale entry, head due at 4 -> dropped
    assert sink.got == [] and len(ch) == 1
    net.step(2)
    assert sink.got == [(4, 2, 0)]


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
    ch.send_at("x", 0 + ch.latency)
    assert ch and len(ch) == 1
    assert ch.sent == 1
    assert list(ch.peek_arrivals()) == [(2, "x")]


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
