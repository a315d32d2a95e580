"""YX dimension-order routing — the paper's baseline (Table I).

Routes fully in Y first, then in X. Deterministic and deadlock-free on a
mesh (dimension-order acyclic channel dependencies).

The five possible decisions are the interned ``ROUTE_TO`` instances:
the routing functions sit on the VA hot path and must not allocate per
call.
"""

from __future__ import annotations

from ..core.routing import ROUTE_TO, Decision
from ..noc.types import Direction

_NORTH = ROUTE_TO[Direction.NORTH]
_SOUTH = ROUTE_TO[Direction.SOUTH]
_EAST = ROUTE_TO[Direction.EAST]
_WEST = ROUTE_TO[Direction.WEST]
_LOCAL = ROUTE_TO[Direction.LOCAL]


def yx_route(cur_x: int, cur_y: int, dst_x: int, dst_y: int) -> Decision:
    """Next hop under YX routing."""
    if cur_y != dst_y:
        return _NORTH if dst_y > cur_y else _SOUTH
    if cur_x != dst_x:
        return _EAST if dst_x > cur_x else _WEST
    return _LOCAL


def xy_route(cur_x: int, cur_y: int, dst_x: int, dst_y: int) -> Decision:
    """Next hop under XY routing (provided for ablations)."""
    if cur_x != dst_x:
        return _EAST if dst_x > cur_x else _WEST
    if cur_y != dst_y:
        return _NORTH if dst_y > cur_y else _SOUTH
    return _LOCAL
