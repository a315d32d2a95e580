"""Engine behavior: worker autodetection, env overrides, serial
fallback, timeout + retry, order preservation, progress callbacks."""

import time

import pytest

from repro.harness import (BatchedExecutor, ParallelSweep, ResultCache,
                           SweepTask, default_jobs, default_task_timeout,
                           run_sweep_spec)
from repro.harness import parallel as parallel_mod
from repro.spec import ExperimentSpec, SweepSpec


def _square(x):
    return x * x


def _fail_always(x):
    raise RuntimeError(f"boom {x}")


def _sleepy(x):
    time.sleep(1.0)
    return x


def _tasks(n=3):
    return [SweepTask(ExperimentSpec("baseline", rate=0.03,
                                     warmup=100, measure=300, seed=s))
            for s in range(1, n + 1)]


def _eng(**kw):
    kw.setdefault("use_cache", False)
    return ParallelSweep(**kw)


# -- configuration ------------------------------------------------------------

def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert default_jobs() == 7
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "nope")
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert default_jobs() >= 1
    monkeypatch.delenv("REPRO_JOBS")
    import os
    assert default_jobs() == (os.cpu_count() or 1)


def test_default_timeout_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "12.5")
    assert default_task_timeout() == 12.5
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
    with pytest.warns(RuntimeWarning, match="REPRO_TASK_TIMEOUT"):
        assert default_task_timeout() == 600.0


def test_engine_honors_repro_jobs(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert ParallelSweep().max_workers == 3
    assert ParallelSweep(max_workers=1).max_workers == 1


# -- execution paths ----------------------------------------------------------

def test_serial_path_no_pool():
    eng = _eng(max_workers=1)
    out = eng.run(_tasks())
    assert eng.last_mode == "serial"
    assert [r.mechanism for r in out] == ["baseline"] * 3
    # order matches the seeds handed in
    assert len({r.avg_latency for r in out}) > 1


def test_pool_path_matches_serial():
    tasks = _tasks()
    assert _eng(max_workers=2).run(tasks) == _eng(max_workers=1).run(tasks)


def test_map_callable_pool_and_serial():
    items = list(range(8))
    assert _eng(max_workers=2).map_callable(_square, items) == \
        [x * x for x in items]
    assert _eng(max_workers=1).map_callable(_square, items) == \
        [x * x for x in items]
    assert _eng(max_workers=2).map_callable(_square, []) == []


def test_pool_creation_failure_falls_back_serial(monkeypatch):
    def broken(*a, **kw):
        raise OSError("no semaphores here")
    monkeypatch.setattr(parallel_mod.cf, "ProcessPoolExecutor", broken)
    eng = _eng(max_workers=4)
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        out = eng.run(_tasks())
    assert eng.last_mode == "serial"
    assert len(out) == 3
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        assert eng.map_callable(_square, [1, 2, 3]) == [1, 4, 9]


def test_unpicklable_payload_falls_back_serial():
    eng = _eng(max_workers=2)
    items = [1, 2]
    with pytest.warns(RuntimeWarning, match="running serially|failed"):
        out = eng.map_callable(lambda x: x + 1, items)  # lambda: unpicklable
    assert out == [2, 3]


def test_worker_failure_retries_once_then_raises():
    eng = _eng(max_workers=2)
    with pytest.warns(RuntimeWarning, match="retrying"):
        with pytest.raises(RuntimeError, match="boom"):
            eng.map_callable(_fail_always, [1, 2])


def test_timeout_retries_in_process():
    # two items so the pool path (the only one with timeouts) is taken
    eng = _eng(max_workers=2, task_timeout=0.15)
    with pytest.warns(RuntimeWarning, match="retrying"):
        out = eng.map_callable(_sleepy, [41, 42])
    assert out == [41, 42]


# -- sweep wiring -------------------------------------------------------------

def test_sweep_accepts_config_overrides():
    eng = _eng(max_workers=1)
    out = run_sweep_spec(
        SweepSpec(mechanisms=["gflov"], gated_fractions=[0.2], warmup=100,
                  measure=400, overrides={"width": 4, "height": 4}),
        engine=eng)
    assert out["gflov"][0].packets > 0


def test_progress_callback_reports_cache_state(tmp_path):
    cache = ResultCache(tmp_path / "c")
    events = []

    def progress(done, total, task, result, from_cache):
        events.append((done, total, from_cache))

    eng = ParallelSweep(max_workers=1, cache=cache, progress=progress)
    tasks = _tasks(2)
    eng.run(tasks)
    assert events == [(1, 2, False), (2, 2, False)]
    events.clear()
    eng.run(tasks)
    assert events == [(1, 2, True), (2, 2, True)]
    assert eng.last_mode == "cached"


# -- batched executor ---------------------------------------------------------

def _batch_tasks():
    """A small mixed grid: mechanisms x fractions with varied seeds."""
    return [SweepTask(ExperimentSpec(mech, rate=0.03, gated_fraction=f,
                                     warmup=100, measure=300, seed=s,
                                     overrides={"width": 4, "height": 4}))
            for s, (mech, f) in enumerate(
                [("baseline", 0.0), ("baseline", 0.4),
                 ("gflov", 0.4), ("gflov", 0.8), ("rflov", 0.4)], start=1)]


def test_batched_sweep_matches_serial_engine():
    tasks = _batch_tasks()
    serial = ParallelSweep(max_workers=1, use_cache=False).run(tasks)
    executor = BatchedExecutor(3)
    eng = ParallelSweep(executor=executor, use_cache=False)
    batched = eng.run(tasks)
    assert batched == serial
    assert eng.last_mode == "batched"
    assert executor.last_batches == 2  # 5 compatible tasks in chunks of 3


def test_batched_sweep_honors_cache_and_progress(tmp_path):
    calls = []

    def progress(done, total, task, result, from_cache):
        calls.append((done, total, from_cache))

    cache = ResultCache(tmp_path / "c")
    executor = BatchedExecutor(8)
    eng = ParallelSweep(executor=executor, cache=cache, progress=progress)
    tasks = _batch_tasks()
    first = eng.run(tasks)
    assert eng.last_cache_hits == 0 and executor.last_batches == 1
    assert [c[:2] for c in calls] == [(i + 1, 5) for i in range(5)]
    calls.clear()
    # second run replays every cell from the per-task cache: no batches
    again = eng.run(tasks)
    assert again == first
    assert eng.last_cache_hits == 5 and executor.last_batches == 0
    assert eng.last_mode == "cached"
    assert all(c[2] for c in calls)
    # the cache entries are kernel-agnostic: a serial engine hits them
    serial = ParallelSweep(max_workers=1, cache=cache)
    assert serial.run(tasks) == first
    assert serial.last_cache_hits == 5


def test_batched_sweep_groups_incompatible_topologies():
    """Tasks with different config overrides (topologies) must land in
    separate batches but still return in task order."""
    small = {"width": 4, "height": 4}
    tasks = [SweepTask(ExperimentSpec("baseline", rate=0.03, warmup=100,
                                      measure=300, seed=seed,
                                      overrides=overrides))
             for seed, overrides in ((1, small), (2, {}),  # default 8x8
                                     (3, small))]
    executor = BatchedExecutor(8)
    results = ParallelSweep(executor=executor, use_cache=False).run(tasks)
    assert executor.last_batches == 2
    serial = ParallelSweep(max_workers=1, use_cache=False).run(tasks)
    assert results == serial
