"""Destination partitioning tests (Figure 4a semantics)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.partitions import CARDINAL_DIR, QUADRANT_DIRS, partition
from repro.noc.types import Direction

COORD = st.integers(min_value=0, max_value=7)


def test_cardinal_partitions():
    assert partition(3, 3, 3, 6) == 1   # due north
    assert partition(3, 3, 0, 3) == 3   # due west
    assert partition(3, 3, 3, 0) == 5   # due south
    assert partition(3, 3, 7, 3) == 7   # due east


def test_quadrant_partitions():
    assert partition(3, 3, 5, 5) == 0   # NE
    assert partition(3, 3, 1, 5) == 2   # NW
    assert partition(3, 3, 1, 1) == 4   # SW
    assert partition(3, 3, 5, 1) == 6   # SE


def test_self_partition():
    assert partition(2, 2, 2, 2) == -1


def test_classifiers():
    # the routing functions classify a partition by these two tables
    assert set(CARDINAL_DIR) == {1, 3, 5, 7}
    assert set(QUADRANT_DIRS) == {0, 2, 4, 6}
    assert -1 not in CARDINAL_DIR and -1 not in QUADRANT_DIRS


def test_cardinal_direction_map():
    assert CARDINAL_DIR[1] == Direction.NORTH
    assert CARDINAL_DIR[3] == Direction.WEST
    assert CARDINAL_DIR[5] == Direction.SOUTH
    assert CARDINAL_DIR[7] == Direction.EAST


def test_quadrant_direction_map():
    assert QUADRANT_DIRS[0] == (Direction.NORTH, Direction.EAST)
    assert QUADRANT_DIRS[2] == (Direction.NORTH, Direction.WEST)
    assert QUADRANT_DIRS[4] == (Direction.SOUTH, Direction.WEST)
    assert QUADRANT_DIRS[6] == (Direction.SOUTH, Direction.EAST)


@given(COORD, COORD, COORD, COORD)
def test_partition_total_and_symmetric(cx, cy, dx, dy):
    """Every destination falls in exactly one partition; the reverse view
    is the point-reflected partition."""
    p = partition(cx, cy, dx, dy)
    if (cx, cy) == (dx, dy):
        assert p == -1
        return
    assert p in range(8)
    q = partition(dx, dy, cx, cy)
    assert q == (p + 4) % 8


@given(COORD, COORD, COORD, COORD)
def test_partition_direction_consistency(cx, cy, dx, dy):
    """The partition's preferred directions actually point toward dest."""
    p = partition(cx, cy, dx, dy)
    if p == -1:
        return
    from repro.noc.types import DIR_DELTA
    if p in CARDINAL_DIR:
        sx, sy = DIR_DELTA[CARDINAL_DIR[p]]
        assert (dx - cx) * sx >= 0 and (dy - cy) * sy >= 0
        assert (dx - cx) * sx + (dy - cy) * sy > 0
    else:
        yd, xd = QUADRANT_DIRS[p]
        assert (dy - cy) * DIR_DELTA[yd][1] > 0
        assert (dx - cx) * DIR_DELTA[xd][0] > 0
