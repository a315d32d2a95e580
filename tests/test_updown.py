"""Up*/down* routing table tests (Router Parking substrate)."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.updown import (average_distance, bfs_levels,
                                    build_tables, is_connected,
                                    mesh_adjacency)
from repro.config import NoCConfig
from repro.noc.types import DIR_DELTA, Direction


CFG = NoCConfig()
ALL = frozenset(range(64))


def follow(cfg, tables, src, dest, limit=64):
    """Walk the tables from src to dest; returns the node path."""
    path = [src]
    node = src
    for _ in range(limit):
        d = tables[node][dest]
        if d == Direction.LOCAL:
            assert node == dest
            return path
        dx, dy = DIR_DELTA[d]
        x, y = cfg.node_xy(node)
        node = cfg.node_id(x + dx, y + dy)
        path.append(node)
    raise AssertionError("routing did not converge")


def test_full_mesh_tables_route_everywhere():
    tables = build_tables(CFG, ALL, root=0)
    for src in (0, 7, 28, 63):
        for dest in range(64):
            path = follow(CFG, tables, src, dest)
            assert path[-1] == dest


def test_full_mesh_paths_minimal():
    """On the full mesh, up*/down* from the corner root yields shortest
    paths (BFS tree of a mesh keeps all minimal paths legal from root 0)."""
    tables = build_tables(CFG, ALL, root=0)
    for src in (0, 9, 36):
        sx, sy = CFG.node_xy(src)
        for dest in range(64):
            dx, dy = CFG.node_xy(dest)
            manhattan = abs(dx - sx) + abs(dy - sy)
            assert len(follow(CFG, tables, src, dest)) - 1 >= manhattan


def test_holes_are_avoided():
    on = ALL - {27, 28, 35, 36}
    tables = build_tables(CFG, on, root=0)
    for src in on:
        for dest in on:
            path = follow(CFG, tables, src, dest)
            assert set(path) <= on


def test_no_down_up_turns():
    """Every routed path must be a legal up* then down* sequence."""
    on = ALL - {9, 10, 18, 45, 54}
    root = 0
    adj = mesh_adjacency(CFG, on)
    levels = bfs_levels(adj, root)
    tables = build_tables(CFG, on, root)

    def is_up(u, v):
        return (levels[v], v) < (levels[u], u)

    for src in (0, 32, 63):
        for dest in on:
            path = follow(CFG, tables, src, dest)
            went_down = False
            for u, v in zip(path, path[1:]):
                up = is_up(u, v)
                assert not (went_down and up), (src, dest, path)
                went_down = went_down or not up
def test_disconnected_raises():
    # carve the mesh into two halves by removing column 3
    on = ALL - {CFG.node_id(3, y) for y in range(8)}
    with pytest.raises(ValueError):
        build_tables(CFG, on, root=0)


def test_is_connected():
    adj = mesh_adjacency(CFG, ALL)
    assert is_connected(adj, ALL)
    cut = ALL - {CFG.node_id(3, y) for y in range(8)}
    adj2 = mesh_adjacency(CFG, cut)
    assert not is_connected(adj2, cut)
    assert is_connected(adj2, frozenset({0, 1, 2}))


def test_average_distance_full_mesh():
    d = average_distance(CFG, ALL, frozenset({0, 63}))
    assert d == 14.0


def test_average_distance_detour():
    on = ALL - {1, 9}  # block the direct paths near the corner
    d = average_distance(CFG, on, frozenset({0, 2}))
    assert d > 2


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=63), max_size=20),
       st.integers(0, 1000))
def test_random_holes_route_or_raise(holes, seed):
    """For random hole sets: either tables route every on-pair correctly,
    or the builder raises (disconnected)."""
    on = ALL - frozenset(holes)
    if not on:
        return
    root = min(on)
    adj = mesh_adjacency(CFG, on)
    try:
        tables = build_tables(CFG, on, root)
    except ValueError:
        assert not is_connected(adj, on)
        return
    import random
    rng = random.Random(seed)
    nodes = sorted(on)
    for _ in range(10):
        s, t = rng.choice(nodes), rng.choice(nodes)
        path = follow(CFG, tables, s, t)
        assert path[-1] == t and set(path) <= on


def reference_build_tables(cfg, on_nodes, root):
    """The plain BFS over ``(node, has_gone_down)`` tuples that
    ``build_tables`` replaced — kept as its oracle."""
    adj = mesh_adjacency(cfg, on_nodes)
    levels = bfs_levels(adj, root)
    unreachable = on_nodes - levels.keys()
    if unreachable:
        raise ValueError(f"on-subgraph disconnected: {sorted(unreachable)}")

    def is_up(u, v):
        return (levels[v], v) < (levels[u], u)

    tables = {}
    for src in on_nodes:
        table = {src: Direction.LOCAL}
        best = {(src, False): None}
        q = deque([(src, False)])
        while q:
            u, went_down = q.popleft()
            first = best[(u, went_down)]
            for d, v in adj[u].items():
                up = is_up(u, v)
                if went_down and up:
                    continue
                state = (v, went_down or not up)
                if state in best:
                    continue
                hop = first if first is not None else d
                best[state] = hop
                if v not in table:
                    table[v] = hop
                q.append(state)
        missing = on_nodes - table.keys()
        if missing:
            raise ValueError(
                f"up*/down* from {src} cannot reach {sorted(missing)}")
        tables[src] = table
    return tables


@st.composite
def connected_layouts(draw):
    """A mesh shape and a connected on-set grown from a random seed node
    (so every layout is connected), with a root drawn from it."""
    width, height = draw(st.sampled_from([(4, 4), (8, 8), (5, 3)]))
    cfg = NoCConfig(width=width, height=height)
    full = mesh_adjacency(cfg, frozenset(range(cfg.num_routers)))
    start = draw(st.integers(0, cfg.num_routers - 1))
    size = draw(st.integers(1, cfg.num_routers))
    on = [start]
    frontier = sorted(full[start].values())
    while len(on) < size and frontier:
        nxt = frontier.pop(draw(st.integers(0, len(frontier) - 1)))
        if nxt in on:
            continue
        on.append(nxt)
        frontier.extend(v for v in full[nxt].values() if v not in on)
    root = draw(st.sampled_from(sorted(on)))
    return cfg, frozenset(on), root


@settings(max_examples=60, deadline=None)
@given(connected_layouts())
def test_build_tables_matches_reference(layout):
    """Same next hops, and the same dict iteration order at both levels,
    as the tuple-state BFS."""
    cfg, on, root = layout
    got = build_tables(cfg, on, root)
    want = reference_build_tables(cfg, on, root)
    assert got == want
    assert list(got) == list(want)
    for src in want:
        assert list(got[src].items()) == list(want[src].items())
