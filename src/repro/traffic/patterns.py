"""Synthetic traffic patterns (BookSim-compatible definitions).

A pattern maps a source node to a destination node for an ``k_x x k_y``
mesh. The paper evaluates Uniform Random and Tornado; we also provide the
other classic patterns for ablations. Patterns are *active-core aware*:
when the OS has gated cores, traffic flows only between active cores —
if a deterministic partner is gated, the destination falls back to a
uniform-random active core (documented deviation; the paper does not
specify its remapping).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from ..config import NoCConfig
from ..registry import PATTERNS as PATTERN_REGISTRY

PatternFn = Callable[[int, Sequence[int], random.Random], int]


def _fallback(src: int, active: Sequence[int], rng: random.Random) -> int:
    """Uniform-random active destination other than ``src``."""
    if len(active) <= 1:
        return src
    while True:
        dest = active[rng.randrange(len(active))]
        if dest != src:
            return dest


@PATTERN_REGISTRY.register("uniform")
def make_uniform(cfg: NoCConfig) -> PatternFn:
    """Uniform Random: every active core equally likely."""

    def pattern(src: int, active: Sequence[int], rng: random.Random) -> int:
        return _fallback(src, active, rng)

    return pattern


@PATTERN_REGISTRY.register("tornado")
def make_tornado(cfg: NoCConfig) -> PatternFn:
    """Tornado: destination ``((x + ceil(k/2) - 1) mod k, y)`` — halfway
    around the X dimension, staying in the same row (the paper notes that
    tornado communication stays within a row/column)."""
    k = cfg.width
    shift = (k + 1) // 2 - 1

    def pattern(src: int, active: Sequence[int], rng: random.Random) -> int:
        x, y = cfg.node_xy(src)
        dest = cfg.node_id((x + shift) % k, y)
        if dest == src or dest not in _active_set(active):
            return _fallback(src, active, rng)
        return dest

    return pattern


@PATTERN_REGISTRY.register("transpose")
def make_transpose(cfg: NoCConfig) -> PatternFn:
    """Matrix transpose: (x, y) -> (y, x). Requires a square mesh."""
    if cfg.width != cfg.height:
        raise ValueError("transpose needs a square mesh")

    def pattern(src: int, active: Sequence[int], rng: random.Random) -> int:
        x, y = cfg.node_xy(src)
        dest = cfg.node_id(y, x)
        if dest == src or dest not in _active_set(active):
            return _fallback(src, active, rng)
        return dest

    return pattern


@PATTERN_REGISTRY.register("bitcomplement")
def make_bitcomplement(cfg: NoCConfig) -> PatternFn:
    """Bit complement: (x, y) -> (k-1-x, k-1-y)."""

    def pattern(src: int, active: Sequence[int], rng: random.Random) -> int:
        x, y = cfg.node_xy(src)
        dest = cfg.node_id(cfg.width - 1 - x, cfg.height - 1 - y)
        if dest == src or dest not in _active_set(active):
            return _fallback(src, active, rng)
        return dest

    return pattern


@PATTERN_REGISTRY.register("hotspot")
def make_hotspot(cfg: NoCConfig, hotspots: Sequence[int] | None = None,
                 weight: float = 0.3) -> PatternFn:
    """``weight`` of traffic targets hotspot nodes, rest uniform."""
    spots = list(hotspots) if hotspots else [cfg.num_routers // 2]

    def pattern(src: int, active: Sequence[int], rng: random.Random) -> int:
        if rng.random() < weight:
            live = [s for s in spots if s in _active_set(active) and s != src]
            if live:
                return live[rng.randrange(len(live))]
        return _fallback(src, active, rng)

    return pattern


@PATTERN_REGISTRY.register("neighbor")
def make_neighbor(cfg: NoCConfig) -> PatternFn:
    """Nearest-neighbor: (x, y) -> (x+1 mod k, y)."""

    def pattern(src: int, active: Sequence[int], rng: random.Random) -> int:
        x, y = cfg.node_xy(src)
        dest = cfg.node_id((x + 1) % cfg.width, y)
        if dest == src or dest not in _active_set(active):
            return _fallback(src, active, rng)
        return dest

    return pattern


# Cache of the active-set view; Sequence -> frozenset conversion is the
# hot path of deterministic patterns.  The cache holds a *strong
# reference* to the keyed sequence and compares by identity: an alive
# object's id cannot be recycled, so this is immune to the id-reuse bug
# a plain ``id()`` key has (a fresh list allocated at a dead list's
# address would silently hit the stale entry).  Callers must replace
# the active list wholesale rather than mutate it in place — the
# traffic generator does.
_active_cache: tuple[Sequence[int] | None, frozenset[int]] = (None,
                                                              frozenset())


def _active_set(active: Sequence[int]) -> frozenset[int]:
    global _active_cache
    if _active_cache[0] is not active:
        _active_cache = (active, frozenset(active))
    return _active_cache[1]


def get_pattern(name: str, cfg: NoCConfig, **kwargs: object) -> PatternFn:
    """Look up a pattern factory in the registry and build it.

    Raises :class:`repro.registry.UnknownComponentError` (a
    ``ValueError``) listing the valid choices for unknown names.
    """
    return PATTERN_REGISTRY.get(name)(cfg, **kwargs)
