"""Up*/down* routing over an arbitrary powered-on subgraph.

Router Parking needs deadlock-free routing on the irregular topology that
remains after parking routers. We use the classic up*/down* scheme: a BFS
spanning tree rooted at a chosen node orders the routers; every link gets
an *up* end (toward the root: lower ``(BFS level, id)``) and a *down*
end; a legal path traverses zero or more up links followed by zero or
more down links. The down->up turn is forbidden, which breaks every
channel-dependency cycle, so any set of legal paths is deadlock-free.

``build_tables`` computes, for every on-router, the next hop of a
*shortest legal* path to every reachable destination via BFS over the
state graph ``(node, has_gone_down)``, encoded ``node*2 + has_gone_down``.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from ..config import NoCConfig
from ..noc.types import DIR_DELTA, Direction


def mesh_adjacency(cfg: NoCConfig, on_nodes: frozenset[int]
                   ) -> dict[int, dict[Direction, int]]:
    """Adjacency of the powered-on sub-mesh."""
    adj: dict[int, dict[Direction, int]] = {}
    for node in on_nodes:
        x, y = cfg.node_xy(node)
        nbrs: dict[Direction, int] = {}
        for d, (dx, dy) in DIR_DELTA.items():
            nx, ny = x + dx, y + dy
            if 0 <= nx < cfg.width and 0 <= ny < cfg.height:
                nb = cfg.node_id(nx, ny)
                if nb in on_nodes:
                    nbrs[d] = nb
        adj[node] = nbrs
    return adj


def bfs_levels(adj: Mapping[int, Mapping[Direction, int]], root: int,
               within: frozenset[int] | None = None) -> dict[int, int]:
    """BFS level of every node reachable from ``root`` (through nodes of
    ``within`` only, when given — so one full-mesh ``adj`` serves every
    sub-mesh)."""
    levels = {root: 0}
    q = deque([root])
    while q:
        u = q.popleft()
        for v in adj[u].values():
            if v not in levels and (within is None or v in within):
                levels[v] = levels[u] + 1
                q.append(v)
    return levels


def is_connected(adj: Mapping[int, Mapping[Direction, int]],
                 must_reach: frozenset[int],
                 within: frozenset[int] | None = None) -> bool:
    """All nodes of ``must_reach`` lie in one connected component (of
    the sub-mesh induced by ``within``, when given)."""
    if not must_reach:
        return True
    root = next(iter(must_reach))
    seen = bfs_levels(adj, root, within)
    return must_reach <= seen.keys()


def build_tables(cfg: NoCConfig, on_nodes: frozenset[int], root: int
                 ) -> dict[int, dict[int, Direction]]:
    """Per-router next-hop tables for shortest up*/down* paths.

    ``tables[u][dest]`` is the output direction at router ``u`` for a
    packet addressed to ``dest`` (``LOCAL`` when ``u == dest``).
    """
    adj = mesh_adjacency(cfg, on_nodes)
    levels = bfs_levels(adj, root)
    unreachable = on_nodes - levels.keys()
    if unreachable:
        raise ValueError(f"on-subgraph disconnected: {sorted(unreachable)}")
    # out-links of every on-node as (direction, neighbour, is_up), in
    # adjacency order; a link goes up when it lowers (BFS level, id)
    links: list[list[tuple[Direction, int, bool]]] = [
        [] for _ in range(cfg.num_routers)]
    for u, nbrs in adj.items():
        rank = (levels[u], u)
        links[u] = [(d, v, (levels[v], v) < rank) for d, v in nbrs.items()]

    local = Direction.LOCAL
    n_states = 2 * cfg.num_routers
    tables: dict[int, dict[int, Direction]] = {}
    for src in on_nodes:
        # BFS over states node*2 + has_gone_down, carrying the first hop
        # taken (None = state not reached yet)
        table: dict[int, Direction] = {src: local}
        hop: list[Direction | None] = [None] * n_states
        hop[2 * src] = local
        queue: list[int] = []
        for d, v, up in links[src]:
            state = 2 * v + (not up)
            hop[state] = d
            if v not in table:
                table[v] = d
            queue.append(state)
        for state in queue:  # grows while it is walked: FIFO order
            first = hop[state]
            went_down = state & 1
            for _, v, up in links[state >> 1]:
                if up:
                    if went_down:
                        continue  # down -> up turn forbidden
                    nxt = 2 * v
                else:
                    nxt = 2 * v + 1
                if hop[nxt] is not None:
                    continue
                hop[nxt] = first
                if v not in table:
                    table[v] = first
                queue.append(nxt)
        missing = on_nodes - table.keys()
        if missing:
            raise ValueError(
                f"up*/down* from {src} cannot reach {sorted(missing)}")
        tables[src] = table
    return tables


def average_distance(cfg: NoCConfig, on_nodes: frozenset[int],
                     endpoints: frozenset[int], *,
                     adj: Mapping[int, Mapping[Direction, int]] | None = None
                     ) -> float:
    """Average shortest-path hop count between endpoint pairs over the
    on-subgraph (unconstrained paths — used by RP's parking policy).

    ``adj`` may be any adjacency that covers ``on_nodes`` (RP passes
    the full mesh's, built once); paths stay inside ``on_nodes``."""
    if adj is None:
        adj = mesh_adjacency(cfg, on_nodes)
    pairs = 0
    total = 0
    for s in endpoints:
        levels = bfs_levels(adj, s, on_nodes)
        for t in endpoints:
            if t != s:
                if t not in levels:
                    return float("inf")
                total += levels[t]
                pairs += 1
    return total / pairs if pairs else 0.0
