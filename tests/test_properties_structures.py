"""Hypothesis property tests on the core data structures."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fullsystem.cache import SetAssocCache
from repro.noc.buffer import InputVC, VCState
from repro.noc.channel import DelayChannel
from repro.noc.types import Direction, make_packet


# ------------------------------------------------------------------ cache

@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200), st.booleans()), max_size=120))
def test_cache_capacity_and_membership(ops):
    """The cache never exceeds its capacity; present lines always return
    their most recent state; eviction reports exactly what left."""
    cache = SetAssocCache(8 * 64, 2, 64)  # 8 lines, 4 sets, 2-way
    model: dict[int, bool] = {}
    for line, state in ops:
        victim = cache.put(line, state)
        model[line] = state
        if victim is not None:
            vline, vstate = victim
            assert model.pop(vline) == vstate
        assert sum(n in cache for n in range(201)) == len(model) <= 8
    for line, state in model.items():
        assert cache.get(line, touch=False) == state


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=60))
def test_cache_lru_order(accesses):
    """With a single set, eviction follows exact LRU order."""
    cache = SetAssocCache(4 * 64, 4, 64)
    lru: OrderedDict[int, int] = OrderedDict()
    for line in accesses:
        line *= cache.num_sets  # force into one set
        victim = cache.put(line, 1)
        if line in lru:
            lru.move_to_end(line)
        else:
            lru[line] = 1
        if victim is not None:
            expect = next(iter(lru))
            assert victim[0] == expect
            del lru[expect]


# ------------------------------------------------------------------ buffer

@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_inputvc_fifo_order(sizes):
    """Flits come out exactly in the order they went in; VC state follows
    the front packet."""
    vc = InputVC(capacity=sum(sizes))
    flits = []
    for pid, size in enumerate(sizes):
        flits.extend(make_packet(pid, 0, 1, size))
    # the delivery loop appends in place; the first head starts ROUTING
    vc.buffer.extend(flits)
    vc.state = VCState.ROUTING
    out = []
    while vc.buffer:
        assert (vc.state == VCState.ROUTING) == vc.buffer[0].is_head
        vc.state = VCState.ACTIVE  # the router's VA grants in place
        vc.out_port, vc.out_vc = Direction.EAST, 0
        out.append(vc.pop(0))
    assert out == flits
    assert vc.state == VCState.IDLE


# ------------------------------------------------------------------ channel

@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5),
       st.lists(st.tuples(st.integers(0, 100), st.integers(0, 99)),
                max_size=40))
def test_channel_delivery_time_and_order(latency, sends):
    """Every item arrives exactly `latency` cycles after a monotone send
    time, in send order, through one timing-wheel entry per item."""
    ch = DelayChannel(latency=latency)
    wheel: dict = {}
    ch.bind(wheel, None, None)
    t = 0
    expected = []
    for dt, item in sends:
        t += dt
        ch.send_at(item, t + latency)  # the router sends at now + latency
        expected.append((t + latency, item))
    got = []
    for now in range(t + latency + 1):
        # the kernel pops one due item per wheel entry
        for c in wheel.pop(now, ()):
            arrival, item = c._q.popleft()
            assert arrival == now
            got.append((now, item))
    assert got == expected and not wheel and not ch
