"""Traffic patterns, injection process, and gating schedule tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NoCConfig, Network
from repro.gating.schedule import (EpochGating, GatingSchedule, StaticGating,
                                   random_epochs)
from repro.traffic.generator import TrafficGenerator
from repro.registry import PATTERNS
from repro.traffic.patterns import get_pattern

CFG = NoCConfig()
RNG = random.Random(0)
ALL_ACTIVE = list(range(64))


# ----------------------------------------------------------------- patterns

def test_uniform_never_self():
    p = get_pattern("uniform", CFG)
    for src in range(64):
        for _ in range(20):
            assert p(src, ALL_ACTIVE, RNG) != src


def test_tornado_same_row_half_way():
    p = get_pattern("tornado", CFG)
    for src in range(64):
        dest = p(src, ALL_ACTIVE, RNG)
        sx, sy = CFG.node_xy(src)
        dx, dy = CFG.node_xy(dest)
        assert dy == sy
        assert dx == (sx + 3) % 8


def test_tornado_gated_partner_falls_back():
    p = get_pattern("tornado", CFG)
    active = [n for n in range(64) if n != 3]  # (3,0) gated
    dest = p(0, active, RNG)
    assert dest != 3 and dest != 0 and dest in active


def test_transpose():
    p = get_pattern("transpose", CFG)
    assert p(CFG.node_id(2, 5), ALL_ACTIVE, RNG) == CFG.node_id(5, 2)


def test_transpose_requires_square():
    with pytest.raises(ValueError):
        get_pattern("transpose", NoCConfig(width=4, height=2))


def test_bitcomplement():
    p = get_pattern("bitcomplement", CFG)
    assert p(0, ALL_ACTIVE, RNG) == 63
    assert p(CFG.node_id(2, 1), ALL_ACTIVE, RNG) == CFG.node_id(5, 6)


def test_hotspot_bias():
    p = get_pattern("hotspot", CFG, hotspots=[10], weight=1.0)
    hits = sum(p(0, ALL_ACTIVE, RNG) == 10 for _ in range(50))
    assert hits == 50


def test_neighbor():
    p = get_pattern("neighbor", CFG)
    assert p(0, ALL_ACTIVE, RNG) == 1
    assert p(7, ALL_ACTIVE, RNG) == 0


def test_unknown_pattern():
    with pytest.raises(ValueError, match="unknown traffic pattern"):
        get_pattern("wat", CFG)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(set(PATTERNS) - {"transpose"})),
       st.integers(0, 63),
       st.sets(st.integers(0, 63), min_size=2, max_size=64))
def test_patterns_respect_active_set(name, src, active_set):
    """Destinations always come from the active set and never equal src."""
    active = sorted(active_set | {src})
    if len(active) < 2:
        return
    p = get_pattern(name, CFG)
    rng = random.Random(1)
    for _ in range(5):
        dest = p(src, active, rng)
        assert dest in active and dest != src


# ---------------------------------------------------------------- generator

def test_generator_rate():
    cfg = NoCConfig()
    net = Network(cfg)
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.08, seed=2)
    total = sum(gen.tick() or net.step() or 0 for _ in range(0))  # noqa
    created = 0
    for _ in range(2000):
        created += gen.tick()
        net.step()
    expected = 0.08 / 4 * 64 * 2000
    assert created == pytest.approx(expected, rel=0.1)


def test_generator_zero_rate():
    cfg = NoCConfig()
    net = Network(cfg)
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.0)
    assert gen.tick() == 0


def test_generator_invalid_rate():
    cfg = NoCConfig()
    net = Network(cfg)
    with pytest.raises(ValueError):
        TrafficGenerator(net, get_pattern("uniform", cfg), -1)
    with pytest.raises(ValueError):
        TrafficGenerator(net, get_pattern("uniform", cfg), 8.0)


def test_generator_skips_gated_cores():
    cfg = NoCConfig()
    net = Network(cfg)
    gated = frozenset(range(32))
    net.set_gating(EpochGating([(0, gated)]))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.5, seed=3)
    gen.tick()
    # check source queues of gated nodes are empty
    for n in gated:
        assert net.routers[n].ni.pending_flits == 0


# ---------------------------------------------------------------- schedules

def test_static_gating_fraction():
    s = StaticGating(64, 0.25, seed=1)
    assert len(s.gated_at(0)) == 16
    assert s.gated_at(100) == s.gated_at(0)


def test_static_gating_protect():
    s = StaticGating(64, 1.0, protect=[0, 1])
    gated = s.gated_at(0)
    assert 0 not in gated and 1 not in gated
    assert len(gated) == 62


def test_static_gating_validation():
    with pytest.raises(ValueError):
        StaticGating(64, 1.5)


def test_epoch_gating_transitions():
    e = EpochGating([(0, {1}), (100, {2}), (200, set())])
    assert e.gated_at(0) == {1}
    assert e.gated_at(99) == {1}
    assert e.gated_at(100) == {2}
    assert e.gated_at(500) == frozenset()
    assert e.change_points == (100, 200)


def test_epoch_gating_validation():
    with pytest.raises(ValueError):
        EpochGating([(5, {1})])
    with pytest.raises(ValueError):
        EpochGating([(0, {1}), (100, {2}), (100, {3})])


def test_random_epochs():
    e = random_epochs(64, [0.1, 0.5], [1000], seed=4, protect=[0])
    assert len(e.gated_at(0)) == 6
    assert len(e.gated_at(1000)) == 32
    assert 0 not in e.gated_at(1000)
    with pytest.raises(ValueError):
        random_epochs(64, [0.1], [1000])


def test_base_schedule_nothing_gated():
    s = GatingSchedule()
    assert s.gated_at(123) == frozenset()
    assert s.active_at(0, 4) == [0, 1, 2, 3]
