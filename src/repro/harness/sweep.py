"""Parameter sweeps over mechanisms / gated fractions / injection rates —
the grids behind Figures 6, 7 and 9.

A figure is a declarative :class:`~repro.spec.SweepSpec`, checked in
under ``examples/specs/`` (``repro spec run`` prints its tables);
:func:`run_sweep_spec` expands it into
:class:`~repro.spec.ExperimentSpec` cells and hands them to a
:class:`~repro.harness.parallel.ParallelSweep` as tasks — so a full
figure grid saturates every core on first run and replays from the
on-disk result cache afterwards.
Pass ``engine=ParallelSweep(max_workers=1, use_cache=False)`` for a
serial, uncached run.
"""

from __future__ import annotations

from ..spec import SweepSpec
from .parallel import ParallelSweep, SweepTask
from .runner import ExperimentResult

#: the four mechanisms every figure compares
FIGURE_MECHANISMS: tuple[str, ...] = ("baseline", "rp", "rflov", "gflov")


def run_sweep_spec(spec: SweepSpec, engine: ParallelSweep | None = None
                   ) -> dict[str, list[ExperimentResult]]:
    """Execute every cell of a :class:`~repro.spec.SweepSpec`.

    Returns ``{mechanism: [result, ...]}`` with results in the spec's
    rate-major-then-fraction cell order (for the single-rate grids the
    figures use, that is simply one result per gated fraction).
    """
    cells = spec.expand()
    if engine is None:
        engine = ParallelSweep()
    results = engine.run([SweepTask(cell) for cell in cells])
    per_mech = len(cells) // len(spec.mechanisms)
    out: dict[str, list[ExperimentResult]] = {}
    for i, mech in enumerate(spec.mechanisms):
        out[mech] = results[i * per_mech:(i + 1) * per_mech]
    return out
