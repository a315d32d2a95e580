"""Unit tests for channels, buffers, flits, stats."""

import pytest

from repro.noc.buffer import InputVC, VCState
from repro.noc.channel import DelayChannel
from repro.noc.stats import StatsCollector
from repro.noc.types import (DIR_DELTA, MESH_DIRS, OPPOSITE, Direction,
                             make_packet)


# ------------------------------------------------------------------ channels

def test_channel_latency():
    ch = DelayChannel(latency=2)
    ch.send("a", now=10)
    assert ch.receive(10) == []
    assert ch.receive(11) == []
    assert ch.receive(12) == ["a"]
    assert ch.receive(13) == []


def test_channel_order_preserved():
    ch = DelayChannel(latency=1)
    for i in range(5):
        ch.send(i, now=i)
    assert ch.receive(100) == [0, 1, 2, 3, 4]


def test_channel_send_at_monotone():
    ch = DelayChannel(latency=1)
    ch.send_at("x", 5)
    with pytest.raises(ValueError):
        ch.send_at("y", 4)


def test_channel_clear_and_len():
    ch = DelayChannel(latency=1)
    ch.send("a", 0)
    ch.send("b", 1)
    assert len(ch) == 2 and bool(ch)
    ch.clear()
    assert len(ch) == 0 and not ch


def test_channel_min_latency():
    with pytest.raises(ValueError):
        DelayChannel(latency=0)


# ------------------------------------------------------------------- buffers

def _flits(pid=1, size=4, src=0, dest=1):
    return make_packet(pid, src, dest, size)


def test_vc_head_starts_routing():
    vc = InputVC(capacity=4)
    flits = _flits()
    vc.push(flits[0], now=0)
    assert vc.state == VCState.ROUTING
    assert vc.wait_since == 0


def test_vc_tail_pop_frees():
    vc = InputVC(capacity=6)
    for f in _flits():
        vc.push(f, now=0)
    vc.allocate(Direction.EAST, 2)
    assert vc.state == VCState.ACTIVE
    for _ in range(4):
        vc.pop(now=5)
    assert vc.state == VCState.IDLE
    assert vc.out_port is None and vc.out_vc == -1


def test_vc_multi_packet_refresh():
    """Old tail followed by new head: popping the tail re-enters ROUTING."""
    vc = InputVC(capacity=8)
    p1 = _flits(pid=1, size=2)
    p2 = _flits(pid=2, size=2)
    for f in p1 + p2:
        vc.push(f, now=0)
    vc.allocate(Direction.NORTH, 0)
    vc.pop(now=1)
    assert vc.state == VCState.ACTIVE
    vc.pop(now=2)  # tail of p1
    assert vc.state == VCState.ROUTING  # head of p2 at front
    assert vc.wait_since == 2


def test_vc_overflow_raises():
    vc = InputVC(capacity=1)
    f = _flits(size=2)
    vc.push(f[0], now=0)
    with pytest.raises(OverflowError):
        vc.push(f[1], now=0)


def test_vc_release_route():
    vc = InputVC(capacity=4)
    vc.push(_flits()[0], now=0)
    vc.allocate(Direction.WEST, 1)
    vc.release_route(now=7)
    assert vc.state == VCState.ROUTING
    assert vc.wait_since == 7


def test_vc_allocate_requires_routing():
    vc = InputVC(capacity=4)
    with pytest.raises(RuntimeError):
        vc.allocate(Direction.EAST, 0)


# -------------------------------------------------------------------- types

def test_direction_opposites():
    for d in MESH_DIRS:
        assert OPPOSITE[OPPOSITE[d]] is d
        dx, dy = DIR_DELTA[d]
        ox, oy = DIR_DELTA[OPPOSITE[d]]
        assert (dx + ox, dy + oy) == (0, 0)


def test_make_packet_structure():
    flits = make_packet(7, 3, 9, 4, vnet=1, time=100)
    assert len(flits) == 4
    assert flits[0].is_head and not flits[0].is_tail
    assert flits[-1].is_tail and not flits[-1].is_head
    assert all(not f.is_head and not f.is_tail for f in flits[1:-1])
    pkt = flits[0].packet
    assert all(f.packet is pkt for f in flits)
    assert pkt.create_time == 100 and pkt.vnet == 1


def test_make_packet_single_flit():
    (f,) = make_packet(1, 0, 1, 1)
    assert f.is_head and f.is_tail


def test_make_packet_invalid_size():
    with pytest.raises(ValueError):
        make_packet(1, 0, 1, 0)


def test_packet_latency_properties():
    flits = make_packet(1, 0, 1, 2, time=10)
    pkt = flits[0].packet
    pkt.inject_time = 15
    pkt.eject_time = 40
    assert pkt.latency == 30
    assert pkt.network_latency == 25


# -------------------------------------------------------------------- stats

def _done_packet(create, inject, eject, hops=2, links=1, flov=0, size=4):
    flits = make_packet(1, 0, 1, size, time=create)
    p = flits[0].packet
    p.inject_time = inject
    p.eject_time = eject
    p.router_hops = hops
    p.link_hops = links
    p.flov_hops = flov
    return p


def test_stats_average_latency():
    st = StatsCollector(3)
    st.on_eject(_done_packet(0, 0, 10))
    st.on_eject(_done_packet(0, 0, 30))
    assert st.avg_latency == 20
    assert st.max_latency == 30


def test_stats_warmup_exclusion():
    st = StatsCollector(3, warmup=100)
    st.on_eject(_done_packet(50, 50, 90))
    assert st.measured_packets == 0
    assert st.packets_ejected == 1
    st.on_eject(_done_packet(150, 150, 190))
    assert st.measured_packets == 1


def test_stats_breakdown_zero_load():
    """router*3 + links + serialization must account for a zero-load packet."""
    st = StatsCollector(3)
    # 2 routers, 1 link, 4 flits: latency = 2*3 + 1 + 3 = 10
    st.on_eject(_done_packet(0, 0, 10, hops=2, links=1, size=4))
    bd = st.breakdown(packet_size=4)
    assert bd.router == 6
    assert bd.link == 1
    assert bd.serialization == 3
    assert bd.contention == 0
    assert bd.total == 10


def test_stats_breakdown_flov_component():
    st = StatsCollector(3)
    st.on_eject(_done_packet(0, 0, 12, hops=2, links=2, flov=1, size=4))
    bd = st.breakdown(4)
    assert bd.flov == 1
    assert bd.total == 12


def test_stats_throughput():
    st = StatsCollector(3)
    st.on_eject(_done_packet(0, 0, 10))
    assert st.throughput(cycles=100, nodes=4) == pytest.approx(4 / 400)
    assert st.throughput(0, 4) == 0.0


def test_stats_windowed_requires_samples():
    st = StatsCollector(3)
    with pytest.raises(RuntimeError):
        st.latency_windows(10)
    st2 = StatsCollector(3, keep_samples=True)
    st2.on_eject(_done_packet(0, 0, 10))
    st2.on_eject(_done_packet(0, 0, 20))
    st2.on_eject(_done_packet(90, 95, 130))
    win = st2.latency_windows(50)
    assert (win[0].start, win[0].avg) == (0, 15.0)
    assert (win[1].start, win[1].avg) == (100, 40.0)
