"""OS-level core power-gating schedules.

The paper's premise: the OS consolidates threads and power-gates idle
cores; the NoC mechanism reacts to the resulting core power states. A
schedule maps simulation cycles to the set of gated core ids.

``StaticGating`` gates a fixed fraction for the whole run (Figures 6-9);
``EpochGating`` changes the gated set at given cycles (Figure 10 uses
changes at 50k and 60k cycles).
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Mapping, Sequence

from ..registry import SCHEDULES as SCHEDULE_REGISTRY


class GatingSchedule:
    """Base class: nothing gated, ever."""

    #: cycles at which the gated set changes (cycle 0 is implicit)
    change_points: tuple[int, ...] = ()

    def gated_at(self, cycle: int) -> frozenset[int]:
        """Set of gated core ids at ``cycle``."""
        return frozenset()


class StaticGating(GatingSchedule):
    """A fixed random subset of cores is gated for the whole run.

    ``protect`` lists nodes that must never be gated (e.g. memory
    controllers in full-system runs).
    """

    def __init__(self, num_nodes: int, fraction: float, *, seed: int = 1,
                 protect: Iterable[int] = ()) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.num_nodes = num_nodes
        self.fraction = fraction
        protect_set = frozenset(protect)
        candidates = [n for n in range(num_nodes) if n not in protect_set]
        count = min(round(fraction * num_nodes), len(candidates))
        rng = random.Random(seed)
        self._gated = frozenset(rng.sample(candidates, count))

    def gated_at(self, cycle: int) -> frozenset[int]:
        return self._gated


class EpochGating(GatingSchedule):
    """Gated set changes at explicit cycle boundaries.

    ``epochs`` is a sequence of ``(start_cycle, gated_set)`` with strictly
    increasing start cycles; the first epoch must start at 0.
    """

    def __init__(self, epochs: Sequence[tuple[int, Iterable[int]]]) -> None:
        if not epochs or epochs[0][0] != 0:
            raise ValueError("first epoch must start at cycle 0")
        starts = [s for s, _ in epochs]
        if starts != sorted(set(starts)):
            raise ValueError("epoch starts must be strictly increasing")
        self._epochs = [(s, frozenset(g)) for s, g in epochs]
        self.change_points = tuple(s for s, _ in self._epochs[1:])

    def gated_at(self, cycle: int) -> frozenset[int]:
        current = self._epochs[0][1]
        for start, gated in self._epochs:
            if cycle >= start:
                current = gated
            else:
                break
        return current


# -- SimSnapshot protocol ------------------------------------------------------

def schedule_to_epochs(schedule: GatingSchedule) -> list[list]:
    """Flatten any schedule into explicit ``[[start, gated ids], ...]``.

    Every schedule is fully described by its gated set at cycle 0 plus
    one set per change point, so snapshots need no per-class codecs —
    restore always rebuilds an :class:`EpochGating` with identical
    ``gated_at`` behavior (set *identity* differs, which is why
    consumers caching ``gated_at`` results by identity must reset their
    caches on restore).
    """
    starts = (0, *schedule.change_points)
    return [[s, sorted(schedule.gated_at(s))] for s in starts]


def schedule_from_epochs(data: Sequence[Sequence]) -> EpochGating:
    """Inverse of :func:`schedule_to_epochs`."""
    return EpochGating([(int(s), frozenset(g)) for s, g in data])


def random_epochs(num_nodes: int, fractions: Sequence[float],
                  boundaries: Sequence[int], *, seed: int = 1,
                  protect: Iterable[int] = ()) -> EpochGating:
    """Build an :class:`EpochGating` with a random gated set per epoch.

    ``boundaries`` are the change cycles; ``fractions`` has one more
    element than ``boundaries`` (one per epoch).
    """
    if len(fractions) != len(boundaries) + 1:
        raise ValueError("need len(fractions) == len(boundaries) + 1")
    rng = random.Random(seed)
    protect_set = frozenset(protect)
    candidates = [n for n in range(num_nodes) if n not in protect_set]
    epochs: list[tuple[int, frozenset[int]]] = []
    starts = [0, *boundaries]
    for start, frac in zip(starts, fractions):
        count = min(round(frac * num_nodes), len(candidates))
        epochs.append((start, frozenset(rng.sample(candidates, count))))
    return EpochGating(epochs)


# -- declarative builders (experiment-spec `schedule = {kind = ...}`) ---------
#
# Each builder takes ``(cfg, args)`` — the experiment's NoCConfig plus
# the spec's schedule mapping minus its "kind" key — and returns a
# GatingSchedule.  Registered on repro.registry.SCHEDULES, the spec
# layer's one name space for schedule kinds.

@SCHEDULE_REGISTRY.register("none")
def _build_none(cfg: Any, args: Mapping[str, Any]) -> GatingSchedule:
    """Nothing ever gated (ignores all args)."""
    return GatingSchedule()


@SCHEDULE_REGISTRY.register("static")
def _build_static(cfg: Any, args: Mapping[str, Any]) -> StaticGating:
    """``{kind="static", fraction=0.4, seed=?, protect=[...]}``.

    ``seed`` defaults to the experiment config's seed — the exact
    construction the legacy ``gated_fraction`` path uses.
    """
    return StaticGating(cfg.num_routers, args.get("fraction", 0.0),
                        seed=args.get("seed", cfg.seed),
                        protect=args.get("protect", ()))


@SCHEDULE_REGISTRY.register("epoch")
def _build_epoch(cfg: Any, args: Mapping[str, Any]) -> EpochGating:
    """``{kind="epoch", epochs=[[0, [ids...]], [50000, [ids...]], ...]}``."""
    try:
        epochs = [(int(start), tuple(gated))
                  for start, gated in args["epochs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"epoch schedule needs epochs=[[start, "
                         f"[gated ids]], ...]: {exc}") from None
    return EpochGating(epochs)


@SCHEDULE_REGISTRY.register("random_epochs")
def _build_random_epochs(cfg: Any, args: Mapping[str, Any]) -> EpochGating:
    """``{kind="random_epochs", fractions=[...], boundaries=[...],
    seed=?, protect=[...]}`` (Fig 10-style reconfiguration churn)."""
    try:
        fractions = [float(f) for f in args["fractions"]]
        boundaries = [int(b) for b in args["boundaries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"random_epochs schedule needs fractions=[...] "
                         f"and boundaries=[...]: {exc}") from None
    return random_epochs(cfg.num_routers, fractions, boundaries,
                         seed=args.get("seed", cfg.seed),
                         protect=args.get("protect", ()))
