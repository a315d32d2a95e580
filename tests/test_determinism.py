"""Determinism regression: same seed + config must give bit-identical
``ExperimentResult`` objects across repeated runs, across the serial and
parallel executor paths, and across a cache round-trip.

``ExperimentResult`` is a plain dataclass, so ``==`` compares every
field — latency, breakdown, power/energy, power-state counts, samples.
Any nondeterminism (unordered set/dict iteration in the handshake or
allocators, RNG leakage between runs) fails these tests.
"""

import pytest

from repro.config import MECHANISMS
from repro.harness import (ExperimentResult, FIGURE_MECHANISMS, ParallelSweep,
                           SweepTask, run_spec)
from repro.spec import ExperimentSpec

KW = dict(pattern="uniform", rate=0.04, gated_fraction=0.3,
          warmup=200, measure=900, seed=7)


def run(mech, **kw):
    return run_spec(ExperimentSpec(mech, **kw))


def _tasks():
    return [SweepTask(ExperimentSpec(mech, rate=0.04, gated_fraction=frac,
                                     warmup=200, measure=700, seed=7))
            for mech in FIGURE_MECHANISMS
            for frac in (0.0, 0.4)]


def test_same_seed_bit_identical_runs():
    a = run("gflov", keep_samples=True, **KW)
    b = run("gflov", keep_samples=True, **KW)
    assert isinstance(a, ExperimentResult)
    assert a == b  # every field, including breakdown and samples


def test_same_seed_bit_identical_all_mechanisms():
    for mech in MECHANISMS:
        a = run(mech, **KW)
        b = run(mech, **KW)
        assert a == b, f"{mech} is nondeterministic"


def test_different_seed_differs():
    a = run("gflov", **KW)
    b = run("gflov", **{**KW, "seed": 8})
    assert a != b


def test_serial_vs_parallel_identical(tmp_path):
    tasks = _tasks()
    serial = ParallelSweep(max_workers=1, use_cache=False).run(tasks)
    pooled_engine = ParallelSweep(max_workers=2, use_cache=False)
    pooled = pooled_engine.run(tasks)
    assert serial == pooled
    # the pool path must actually have been exercised (workers > 1)
    assert pooled_engine.last_mode in ("parallel", "serial")
    # order preservation: results line up with their tasks
    for task, res in zip(tasks, serial):
        assert res.mechanism == task.spec.mechanism
        assert res.gated_fraction == task.spec.gated_fraction


def test_cache_replay_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    from repro.harness import ResultCache
    cache = ResultCache(tmp_path / "cache")
    tasks = _tasks()[:3]
    eng = ParallelSweep(max_workers=1, cache=cache)
    first = eng.run(tasks)
    assert eng.last_cache_hits == 0
    replay = eng.run(tasks)
    assert eng.last_cache_hits == len(tasks)
    assert eng.last_mode == "cached"
    assert first == replay


def test_active_set_cache_immune_to_id_reuse():
    """Regression: the pattern active-set cache was keyed by ``id(list)``;
    a fresh list allocated at a dead list's address silently hit the
    stale entry, sending packets to gated (inactive) cores.  The cache
    now holds a strong reference and compares by identity."""
    from repro.traffic.patterns import _active_set

    a = list(range(0, 64, 2))
    assert _active_set(a) == frozenset(a)
    del a  # old key object dies; its address may be recycled...
    for _ in range(50):
        b = list(range(1, 64, 3))  # ...by one of these allocations
        assert _active_set(b) == frozenset(b)
        del b


def test_result_equality_is_meaningful():
    a = run("gflov", **KW)
    b = run("gflov", **{**KW, "gated_fraction": 0.5})
    assert a != b
