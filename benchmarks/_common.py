"""Shared benchmark scaffolding.

Every benchmark regenerates one of the paper's tables/figures and prints
the same rows/series the paper plots. By default the simulations are
shortened (pure-Python speed); set ``REPRO_FULL=1`` for paper-length
runs (10k warmup + 90k measured cycles, full fraction grid).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.harness import FIGURE_MECHANISMS  # noqa: E402

FULL = bool(os.environ.get("REPRO_FULL"))

#: gated-core fractions on the figures' x axes
FRACTIONS = ((0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8) if FULL
             else (0.0, 0.2, 0.4, 0.6, 0.8))

#: warmup / measured cycles per run
WARMUP = 10_000 if FULL else 1_000
MEASURE = 90_000 if FULL else 5_000

#: instructions per core for full-system runs
FS_INSTRUCTIONS = 4_000 if FULL else 600
FS_MAX_CYCLES = 2_000_000 if FULL else 250_000

#: the four mechanisms every figure compares (single source of truth:
#: repro.harness.FIGURE_MECHANISMS, itself validated against the
#: mechanism registry)
MECHANISMS = FIGURE_MECHANISMS


def _progress(done: int, total: int, task, result, from_cache: bool) -> None:
    tag = "cache" if from_cache else "run"
    # a SweepTask, or a bare map_callable item (the PARSEC pairs)
    spec = getattr(task, "spec", None)
    print(f"[{done}/{total}] {tag} {spec.mechanism if spec else task}",
          file=sys.stderr)


def make_engine(**kwargs):
    """Shared parallel engine for every benchmark.

    Auto worker count (``REPRO_JOBS`` override), on-disk result cache
    (bypass with ``REPRO_NO_CACHE=1``) — so a full figure regeneration
    saturates the machine on first run and replays from cache afterwards.
    """
    from repro.harness import ParallelSweep
    kwargs.setdefault("progress", _progress)
    return ParallelSweep(**kwargs)


#: engine shared by all benchmarks in one pytest session
ENGINE = make_engine()


def banner(name: str, caption: str) -> None:
    print()
    print("=" * 72)
    print(f"{name}: {caption}")
    print(f"(mode: {'paper-length' if FULL else 'short'}; "
          f"warmup={WARMUP}, measured={MEASURE})")
    print("=" * 72)
