"""Destination partitioning (Figure 4a of the paper).

Every router divides the mesh into eight partitions relative to itself:

* **Cardinal** partitions — destinations in the same column/row:
  ``1`` = due North, ``3`` = due West, ``5`` = due South, ``7`` = due East.
* **Quadrant** partitions — destinations requiring a turn:
  ``0`` = North-East, ``2`` = North-West, ``4`` = South-West,
  ``6`` = South-East.

Packets to cardinal partitions are forwarded straight in that direction
(FLOV links guarantee connectivity along a line). Quadrant packets prefer
the Y neighbor (YX routing), then the X neighbor, then fall back to the
East (AON) column.
"""

from __future__ import annotations

from ..noc.types import Direction

#: Cardinal partition id -> outgoing direction.
CARDINAL_DIR: dict[int, Direction] = {
    1: Direction.NORTH,
    3: Direction.WEST,
    5: Direction.SOUTH,
    7: Direction.EAST,
}

#: Quadrant partition id -> (Y-direction preference, X-direction preference).
QUADRANT_DIRS: dict[int, tuple[Direction, Direction]] = {
    0: (Direction.NORTH, Direction.EAST),   # NE
    2: (Direction.NORTH, Direction.WEST),   # NW
    4: (Direction.SOUTH, Direction.WEST),   # SW
    6: (Direction.SOUTH, Direction.EAST),   # SE
}


def partition(cur_x: int, cur_y: int, dst_x: int, dst_y: int) -> int:
    """Partition id of ``(dst_x, dst_y)`` as seen from ``(cur_x, cur_y)``.

    Returns -1 when destination equals the current router.
    """
    dx = dst_x - cur_x
    dy = dst_y - cur_y
    if dx == 0 and dy == 0:
        return -1
    if dx == 0:
        return 1 if dy > 0 else 5
    if dy == 0:
        return 7 if dx > 0 else 3
    if dx > 0:
        return 0 if dy > 0 else 6
    return 2 if dy > 0 else 4
