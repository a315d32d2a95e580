"""Executor-interface equivalence tests.

The refactored engine runs the same :class:`SweepTask` list through any
:class:`Executor` implementation.  The anchor: Serial, Pool, and
Batched executors are **observationally identical** — digest-identical
per-cell results, interchangeable shared-cache hits — so the service
(or a user) can pick a strategy on operational grounds alone.
"""

from __future__ import annotations

import pytest

from repro.harness.cache import ResultCache, result_to_dict, stable_digest
from repro.harness.parallel import (BatchedExecutor, Executor,
                                    ParallelSweep, PoolExecutor,
                                    SerialExecutor, SweepTask,
                                    batch_group_key)
from repro.spec import SweepSpec

SWEEP = SweepSpec(mechanisms=("baseline", "gflov"), pattern="uniform",
                  rates=(0.05,), gated_fractions=(0.0, 0.5),
                  warmup=50, measure=200, seed=21,
                  overrides={"width": 4, "height": 4})


def tasks() -> list[SweepTask]:
    return [SweepTask.from_spec(s) for s in SWEEP.expand()]


def digests(results) -> list[str]:
    return [stable_digest(result_to_dict(r)) for r in results]


EXECUTORS = {
    "serial": SerialExecutor,
    "pool": lambda: PoolExecutor(2),
    "batched": lambda: BatchedExecutor(3),
}


def test_all_executors_satisfy_the_protocol():
    for make in EXECUTORS.values():
        ex = make()
        assert isinstance(ex, Executor)
        assert isinstance(ex.mode, str)


def test_same_sweep_is_digest_identical_across_executors(tmp_path):
    per_executor = {}
    for name, make in EXECUTORS.items():
        engine = ParallelSweep(executor=make(),
                               cache=ResultCache(tmp_path / name))
        per_executor[name] = digests(engine.run(tasks()))
        assert engine.last_cache_hits == 0
    assert per_executor["serial"] == per_executor["pool"] \
        == per_executor["batched"]


@pytest.mark.parametrize("warm,probe", [("serial", "pool"),
                                        ("pool", "batched"),
                                        ("batched", "serial")])
def test_cache_written_by_one_executor_hits_from_another(tmp_path, warm,
                                                         probe):
    cache = ResultCache(tmp_path / "shared")
    first = ParallelSweep(executor=EXECUTORS[warm](), cache=cache)
    warm_digests = digests(first.run(tasks()))
    assert first.last_cache_hits == 0

    second = ParallelSweep(executor=EXECUTORS[probe](), cache=cache)
    probe_digests = digests(second.run(tasks()))
    assert second.last_cache_hits == len(tasks())
    assert second.last_mode == "cached"
    assert probe_digests == warm_digests


def test_engines_are_thin_wrappers_over_their_executors(tmp_path):
    eng = ParallelSweep(3, use_cache=False)
    assert isinstance(eng.executor, PoolExecutor)
    assert eng.executor.max_workers == 3

    injected = SerialExecutor()
    eng = ParallelSweep(executor=injected, use_cache=False)
    assert eng.executor is injected
    eng.run(tasks()[:1])
    assert eng.last_mode == "serial"

    batched = BatchedExecutor(3)
    eng = ParallelSweep(executor=batched, cache=ResultCache(tmp_path / "b"))
    eng.run(tasks())
    assert eng.last_mode == "batched"
    # 4 compatible cells in chunks of 3
    assert batched.last_batches == 2


def test_batch_group_key_separates_incompatible_cells():
    # compatibility is topological: same overrides -> one group, even
    # across mechanisms; different topologies must never share a batch
    ts = tasks()
    assert len({batch_group_key(t) for t in ts}) == 1
    other = SweepSpec(mechanisms=("baseline",), pattern="uniform",
                      rates=(0.05,), gated_fractions=(0.0,),
                      warmup=50, measure=200, seed=21,
                      overrides={"width": 2, "height": 2})
    mixed = ts + [SweepTask.from_spec(s) for s in other.expand()]
    assert len({batch_group_key(t) for t in mixed}) == 2
