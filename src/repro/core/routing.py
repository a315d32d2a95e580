"""FLOV partition-based dynamic routing and the escape sub-network (SS V).

The regular (adaptive) algorithm, executed at every *powered-on* router
(power-gated routers only forward straight through):

1. Destination here -> eject.
2. Cardinal partition (1/3/5/7) -> forward straight in that direction;
   FLOV links guarantee connectivity. If the destination router itself is
   asleep on that line, hold the packet and request its wakeup.
3. Quadrant partition (0/2/4/6) -> YX preference: Y neighbor if powered
   on, else X neighbor if powered on, else fall back East toward the
   always-on (AON) column — unless the packet arrived from the East
   (no-backtrack livelock rule), in which case it waits (the escape
   timeout eventually rescues it).

The escape sub-network routing is deterministic: cardinal partitions go
straight; quadrants go East until the AON column, then turn North/South,
then West — the turn ordering E < {N,S} < W is acyclic, hence
deadlock-free (Figure 4b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..noc.types import Direction
from .partitions import CARDINAL_DIR, QUADRANT_DIRS, partition
from .power_fsm import PowerState


class RouterView(Protocol):
    """What a routing function may observe at the current router.

    This is deliberately *local* information: coordinates, the physical
    PSR (immediate neighbors), and the logical PSR (nearest powered-on
    router per direction) — exactly the state the FLOV hardware holds.
    """

    x: int
    y: int
    node: int
    aon_column: int

    def has_neighbor(self, d: Direction) -> bool: ...
    def neighbor_state(self, d: Direction) -> PowerState | None: ...
    def logical_neighbor(self, d: Direction) -> int | None: ...
    def logical_state(self, d: Direction) -> PowerState | None: ...
    def distance_along(self, d: Direction, node: int) -> int | None: ...


@dataclass(frozen=True)
class Route:
    """Forward through ``out_dir`` (LOCAL means eject)."""

    out_dir: Direction


@dataclass(frozen=True)
class Hold:
    """Cannot make progress this cycle.

    ``wake_target`` names a sleeping router whose wakeup should be
    requested (the destination, for in-line sleeping destinations).
    """

    wake_target: int | None = None


Decision = Route | Hold

#: Interned decisions: routing functions run per head flit per VA
#: attempt and must not allocate.  Both dataclasses are frozen, so one
#: shared ``Route`` per direction (indexed by the direction's value) and
#: one shared no-wake-target ``Hold`` are safe; only
#: ``Hold(wake_target=...)`` is built per call.
ROUTE_TO: tuple[Route, ...] = tuple(Route(d) for d in Direction)
HOLD = Hold()
_LOCAL = ROUTE_TO[Direction.LOCAL]
_EAST = ROUTE_TO[Direction.EAST]


def _path_open(rv: RouterView, d: Direction) -> bool:
    """May a *new* packet be launched in direction ``d``?

    True when the physical neighbor is ACTIVE, or asleep with an ACTIVE
    logical neighbor beyond it (fly-over). DRAINING/WAKEUP block new
    packets in either position. A wakeup handshake completes in bounded
    time (observers pause mid-packet; the waking router adopts in-transit
    wormholes), so these holds cannot deadlock the escape sub-network.
    """
    st = rv.neighbor_state(d)
    if st is None:
        return False
    if st == PowerState.ACTIVE:
        return True
    if st == PowerState.SLEEP:
        return rv.logical_state(d) == PowerState.ACTIVE
    return False


def _dest_asleep_inline(rv: RouterView, d: Direction, dest: int) -> bool:
    """Is the in-line destination ``dest`` power-gated (needs wakeup)?

    The destination sits strictly before the logical neighbor along
    ``d`` (or there is no powered-on router at all along ``d``) iff it is
    currently asleep.
    """
    ln = rv.logical_neighbor(d)
    if ln is None:
        return True
    if ln == dest:
        return False
    dist_dest = rv.distance_along(d, dest)
    dist_ln = rv.distance_along(d, ln)
    assert dist_dest is not None and dist_ln is not None
    return dist_dest < dist_ln


def _route_cardinal(rv: RouterView, d: Direction, dest: int) -> Decision:
    if _dest_asleep_inline(rv, d, dest):
        return Hold(wake_target=dest)
    if _path_open(rv, d):
        return ROUTE_TO[d]
    return HOLD


def flov_route(rv: RouterView, dest_x: int, dest_y: int, dest: int,
               in_dir: Direction) -> Decision:
    """Regular-VC adaptive routing decision (paper SS V, Figure 5)."""
    part = partition(rv.x, rv.y, dest_x, dest_y)
    if part == -1:
        return _LOCAL

    if part in CARDINAL_DIR:
        return _route_cardinal(rv, CARDINAL_DIR[part], dest)

    yd, xd = QUADRANT_DIRS[part]
    if rv.neighbor_state(yd) == PowerState.ACTIVE:
        return ROUTE_TO[yd]
    if rv.neighbor_state(xd) == PowerState.ACTIVE:
        return ROUTE_TO[xd]
    # Both turn candidates power-gated (or transitioning): head East toward
    # the AON column, never back the way we came.
    if in_dir == Direction.EAST:
        return HOLD
    if not rv.has_neighbor(Direction.EAST):
        # Only possible when the AON column is not the east edge; wait.
        return HOLD
    if _path_open(rv, Direction.EAST):
        return _EAST
    return HOLD


def escape_route(rv: RouterView, dest_x: int, dest_y: int, dest: int) -> Decision:
    """Escape sub-network deterministic routing (turn model E -> N/S -> W)."""
    part = partition(rv.x, rv.y, dest_x, dest_y)
    if part == -1:
        return _LOCAL

    if part in CARDINAL_DIR:
        return _route_cardinal(rv, CARDINAL_DIR[part], dest)

    yd, _xd = QUADRANT_DIRS[part]
    if rv.x < rv.aon_column:
        d = Direction.EAST
    else:
        d = yd
    if _path_open(rv, d):
        return ROUTE_TO[d]
    return HOLD


#: Turns forbidden in the escape sub-network (Figure 4b). A turn is the
#: pair (incoming travel direction, outgoing direction).
FORBIDDEN_ESCAPE_TURNS: frozenset[tuple[Direction, Direction]] = frozenset({
    (Direction.NORTH, Direction.EAST),
    (Direction.SOUTH, Direction.EAST),
    (Direction.WEST, Direction.NORTH),
    (Direction.WEST, Direction.SOUTH),
})


def escape_turn_legal(travel_dir: Direction, out_dir: Direction) -> bool:
    """Check a turn against the escape turn model (used by tests)."""
    if Direction.LOCAL in (travel_dir, out_dir):
        return True
    return (travel_dir, out_dir) not in FORBIDDEN_ESCAPE_TURNS
