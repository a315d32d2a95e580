"""Router microarchitecture details: pipeline timing, allocation
fairness, ejection bandwidth, extraction, RouterView geometry."""

import pytest

from repro import NoCConfig, Network
from repro.noc.buffer import VCState
from repro.noc.snapshot import PacketTable
from repro.noc.types import Direction, make_packet


def fresh(**kw):
    return Network(NoCConfig(**kw))


# ------------------------------------------------------------ RouterView

def test_has_neighbor_geometry():
    net = fresh()
    corner = net.routers[0]
    assert corner.has_neighbor(Direction.NORTH)
    assert corner.has_neighbor(Direction.EAST)
    assert not corner.has_neighbor(Direction.SOUTH)
    assert not corner.has_neighbor(Direction.WEST)
    assert set(corner.mesh_ports) == {Direction.NORTH, Direction.EAST}
    center = net.routers[27]
    assert len(center.mesh_ports) == 4


def test_flov_dims():
    net = fresh()
    assert net.routers[0].flov_dims == frozenset()             # corner
    assert net.routers[1].flov_dims == frozenset({"x"})        # south edge
    assert net.routers[8].flov_dims == frozenset({"y"})        # west edge
    assert net.routers[27].flov_dims == frozenset({"x", "y"})  # interior


def test_distance_along():
    net = fresh()
    r = net.routers[27]  # (3,3)
    assert r.distance_along(Direction.EAST, 30) == 3   # (6,3)
    assert r.distance_along(Direction.WEST, 24) == 3   # (0,3)
    assert r.distance_along(Direction.NORTH, 59) == 4  # (3,7)
    assert r.distance_along(Direction.EAST, 24) is None  # wrong side
    assert r.distance_along(Direction.EAST, 38) is None  # off-line


def test_neighbor_id():
    net = fresh()
    r = net.routers[27]
    assert r.neighbor_id(Direction.NORTH) == 35
    assert r.neighbor_id(Direction.SOUTH) == 19
    assert net.routers[0].neighbor_id(Direction.WEST) is None


# ------------------------------------------------------- pipeline timing

def test_min_per_hop_latency_is_four_cycles():
    """3-cycle router + 1-cycle link: consecutive-arrival spacing."""
    net = fresh()
    pkt = net.inject_packet(0, 2, size=1)  # 2 hops east
    for _ in range(50):
        net.step()
    # 3 routers * 3 + 2 links = 11
    assert pkt.network_latency == 11


def test_serialization_pipelines():
    """A 4-flit packet adds exactly 3 cycles over a 1-flit packet."""
    net1 = fresh()
    p1 = net1.inject_packet(0, 7, size=1)
    for _ in range(80):
        net1.step()
    net4 = fresh()
    p4 = net4.inject_packet(0, 7, size=4)
    for _ in range(80):
        net4.step()
    assert p4.network_latency - p1.network_latency == 3


def test_ejection_one_flit_per_cycle():
    """Two packets to one destination from different sides serialize at
    the ejection port."""
    net = fresh()
    a = net.inject_packet(1, 9, size=4)   # south neighbor of 9
    b = net.inject_packet(8, 9, size=4)   # west neighbor of 9
    for _ in range(100):
        net.step()
    assert a.eject_time > 0 and b.eject_time > 0
    # one flit/cycle through the LOCAL port: 8 flits cannot finish together
    assert abs(a.eject_time - b.eject_time) >= 1
    assert max(a.eject_time, b.eject_time) >= min(a.inject_time,
                                                  b.inject_time) + 8


def test_sa_round_robin_fairness(monkeypatch):
    """Sustained competition for one output port serves both inputs, and
    the wait is bounded: while an input competes for router 2's east
    output, at most ``nports - 1`` grants of that output go to others
    between two grants of its own."""
    from repro.noc.router import Router

    net = fresh()
    r2, east = net.routers[2], Direction.EAST
    allocate = Router._switch_allocate
    waits: dict = {}  # competing input port -> east grants to others
    worst = contested = 0

    def spy(router, now):
        nonlocal worst, contested
        if router is not r2:
            return allocate(router, now)
        # the east-bound VCs SA may grant this cycle, by input port
        ready = {(d, i): len(vc.buffer) for d in router.ports
                 for i, vc in enumerate(router.ivc[d])
                 if vc.state is VCState.ACTIVE and vc.out_port is east
                 and vc.buffer and vc.buffer[0].ready <= now
                 and router.credits[east][vc.out_vc] > 0}
        allocate(router, now)
        won = [d for (d, i), n in ready.items()
               if len(router.ivc[d][i].buffer) < n]
        competing = {d for d, _ in ready}
        for d in list(waits):
            if d not in competing:
                del waits[d]  # stopped competing: its wait is over
        if not won:
            return
        (winner,) = won
        contested += len(competing) > 1
        for d in competing - {winner}:
            waits[d] = waits.get(d, 0) + 1
            worst = max(worst, waits[d])
        waits[winner] = 0

    monkeypatch.setattr(Router, "_switch_allocate", spy)
    for _ in range(12):
        net.inject_packet(1, 3)   # west->east through 2
        net.inject_packet(2, 3)   # local at 2 toward east
    for _ in range(1200):
        net.step()
    assert net.stats.packets_ejected == 24
    assert contested >= 24, "the two inputs never competed for east"
    assert worst <= len(r2.ports) - 1, (
        f"an input waited {worst} east grants (bound {len(r2.ports) - 1})")


def test_extract_packet_restores_credits():
    net = fresh()
    r0, r1 = net.routers[0], net.routers[1]
    pkt = net.inject_packet(0, 1)
    # stop VA at router 1 so the packet parks in its west input VC
    r1.pause(Direction.LOCAL, r1.logical.get(Direction.LOCAL))
    r1.paused[Direction.LOCAL] = {None}  # bind: LOCAL has no pointer
    r1.pause(Direction.LOCAL, None)  # block ejection SA
    for _ in range(20):
        net.step()
    vc = r1.ivc[Direction.WEST][0]
    assert len(vc.buffer) == 4
    before = r0.credits[Direction.EAST][0]
    extracted = r1.extract_packet(Direction.WEST, 0, net.cycle)
    assert extracted is pkt
    assert vc.state == VCState.IDLE and not vc.buffer
    assert r1.occupancy == 0
    net.step(5)
    assert r0.credits[Direction.EAST][0] == before + 4


def test_extract_packet_requires_complete():
    net = fresh()
    r = net.routers[1]
    flits = make_packet(1, 0, 5, 4)
    for f in flits[:2]:
        f.vc = 0
        r.deliver_flit(f, Direction.WEST, 0)
    with pytest.raises(AssertionError):
        r.extract_packet(Direction.WEST, 0, 0)


def test_paused_direction_blocks_sa():
    net = fresh()
    r0 = net.routers[0]
    # a pause binds only for the router we currently feed
    r0.pause(Direction.EAST, r0.logical[Direction.EAST])
    pkt = net.inject_packet(0, 1)
    for _ in range(60):
        net.step()
    assert pkt.eject_time == -1  # frozen at router 0
    r0.unpause(Direction.EAST, r0.logical[Direction.EAST])
    for _ in range(60):
        net.step()
    assert pkt.eject_time > 0


def test_occupancy_bookkeeping():
    """``occupancy`` tracks the buffers mid-flight and after the drain,
    and snapshots keep schema v1's per-port ``port_flits`` as a recount
    of the buffers (restore ignores it)."""
    net = fresh()
    for _ in range(5):
        net.inject_packet(0, 63)
    seen_buffered = False
    for cycle in range(300):
        net.step()
        if cycle % 10:
            continue
        for r in net.routers:
            per_port = {d.name: sum(len(vc) for vc in r.ivc[d])
                        for d in r.ports}
            assert r.occupancy == sum(per_port.values())
            assert r.buffers_empty() == (r.occupancy == 0)
            assert r.snapshot_state(PacketTable())["port_flits"] == per_port
            seen_buffered |= r.occupancy > 0
    assert seen_buffered, "no flit was ever buffered; check is vacuous"
    assert all(r.occupancy == 0 for r in net.routers)
