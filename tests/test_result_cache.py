"""Cache correctness: hits equal recomputation, any key-field change
misses, corruption is tolerated, and the env knobs work."""

import json

import pytest

from repro.config import NoCConfig
from repro.harness import (CACHE_SCHEMA_VERSION, ParallelSweep, ResultCache,
                           SweepTask, result_from_dict, result_to_dict,
                           run_spec, spec_digest, stable_digest)
from repro.spec import ExperimentSpec

RUN_KW = dict(rate=0.04, gated_fraction=0.4, warmup=150, measure=500, seed=9)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _task(mechanism="gflov", schedule=None, **over):
    return SweepTask(ExperimentSpec(mechanism, **{**RUN_KW, **over}),
                     schedule)


def _engine(cache, **kw):
    kw.setdefault("max_workers", 1)
    return ParallelSweep(cache=cache, **kw)


def test_hit_equals_recompute(cache):
    task = _task(keep_samples=True)
    cached = _engine(cache).run([task])[0]
    recomputed = run_spec(task.spec)
    replayed = _engine(cache).run([task])[0]
    assert cache.hits == 1
    assert replayed == recomputed == cached


def test_spec_run_hits_warm_cache(tmp_path, monkeypatch):
    """The default cache (``REPRO_CACHE_DIR``) files an entry under the
    spec's digest, and a second engine replays it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    task = _task()
    cold_engine = ParallelSweep(max_workers=1)
    cold = cold_engine.run([task])[0]
    assert cold_engine.last_cache_hits == 0
    warm_engine = ParallelSweep(max_workers=1)
    assert warm_engine.run([task])[0] == cold
    assert warm_engine.last_cache_hits == 1
    digest = spec_digest(task.spec)
    assert (tmp_path / "cache" / digest[:2] / f"{digest}.json").is_file()


@pytest.mark.parametrize("field,value", [
    ("rate", 0.08),
    ("seed", 10),
    ("gated_fraction", 0.2),
    ("measure", 600),
    ("warmup", 100),
    ("pattern", "tornado"),
])
def test_changing_key_field_misses(cache, field, value):
    eng = _engine(cache)
    eng.run([_task()])
    eng.run([_task(**{field: value})])
    assert cache.hits == 0
    assert len(cache) == 2


def test_changing_topology_misses(cache):
    eng = _engine(cache)
    eng.run([_task()])
    eng.run([_task(overrides={"width": 4, "height": 4})])
    assert cache.hits == 0
    assert len(cache) == 2


def test_mechanism_misses(cache):
    eng = _engine(cache)
    eng.run([_task()])
    eng.run([_task("rflov")])
    assert cache.hits == 0


def test_corrupted_file_is_discarded_with_warning(cache):
    task = _task()
    eng = _engine(cache)
    first = eng.run([task])[0]
    path = cache.path_for(task.cache_key())
    assert path.is_file()
    path.write_text("{ not json !!!")
    with pytest.warns(RuntimeWarning, match="corrupted cache entry"):
        again = _engine(cache).run([task])[0]
    assert again == first  # recomputed, not crashed
    # and the recomputation re-populated a valid entry
    assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA_VERSION


def test_schema_mismatch_is_discarded(cache):
    task = _task()
    eng = _engine(cache)
    eng.run([task])
    path = cache.path_for(task.cache_key())
    payload = json.loads(path.read_text())
    payload["schema"] = CACHE_SCHEMA_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.warns(RuntimeWarning, match="corrupted cache entry"):
        eng2 = _engine(cache)
        eng2.run([task])
    assert eng2.last_cache_hits == 0


def test_truncated_result_payload_is_discarded(cache):
    task = _task()
    _engine(cache).run([task])
    path = cache.path_for(task.cache_key())
    payload = json.loads(path.read_text())
    del payload["result"]["avg_latency"]
    path.write_text(json.dumps(payload))
    with pytest.warns(RuntimeWarning, match="corrupted cache entry"):
        _engine(cache).run([task])


@pytest.mark.parametrize("in_place", ["nothing", "directory"])
def test_absent_entry_is_a_silent_miss(cache, in_place):
    """No file at the entry path (nothing there, or a directory): no
    warning, nothing unlinked, one miss counted."""
    import warnings

    key = _task().cache_key()
    neighbour = cache.path_for({"other": 1})
    neighbour.parent.mkdir(parents=True)
    neighbour.write_text("{}")
    if in_place == "directory":
        cache.path_for(key).mkdir(parents=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert neighbour.read_text() == "{}"
    assert cache.path_for(key).is_dir() == (in_place == "directory")


def test_warm_replay_builds_nothing_and_writes_nothing(cache, monkeypatch):
    """A warm ``run_sweep_spec`` replays every cell from the store: no
    Network is constructed and no cache entry is written."""
    import repro.harness.cache as cache_mod
    from repro.harness import run_sweep_spec
    from repro.noc.network import Network
    from repro.spec import SweepSpec

    sweep = SweepSpec(mechanisms=("baseline", "rp"), rates=(0.02,),
                      gated_fractions=(0.0, 0.4), warmup=30, measure=60,
                      seed=5)
    cold = run_sweep_spec(sweep, engine=_engine(cache))

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm replay must not do this")

    monkeypatch.setattr(Network, "__init__", forbidden)
    monkeypatch.setattr(cache_mod, "atomic_write_json", forbidden)
    engine = _engine(cache)
    assert run_sweep_spec(sweep, engine=engine) == cold
    assert engine.last_cache_hits == 4


def test_no_cache_env_bypasses(cache, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    eng = _engine(cache)
    eng.run([_task()])
    eng.run([_task()])
    assert len(cache) == 0
    assert cache.hits == 0


def test_schedule_tasks_are_uncacheable(cache):
    from repro.gating.schedule import EpochGating
    task = _task(schedule=EpochGating([(0, {5})]))
    assert task.cache_key() is None
    _engine(cache).run([task])
    assert len(cache) == 0


def test_result_roundtrip_bit_identical():
    r = run_spec(ExperimentSpec("rp", keep_samples=True, **RUN_KW))
    blob = json.dumps(result_to_dict(r))
    assert result_from_dict(json.loads(blob)) == r


def test_stable_digest_is_order_insensitive():
    a = stable_digest({"x": 1, "y": [1, 2]})
    b = stable_digest({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 64
    assert a != stable_digest({"x": 1, "y": [2, 1]})


def test_config_serialization_roundtrip():
    cfg = NoCConfig(mechanism="rflov", width=6, height=4, seed=42,
                    escape_timeout=16)
    assert NoCConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.stable_hash() == cfg.with_().stable_hash()
    assert cfg.stable_hash() != cfg.with_(seed=43).stable_hash()
    with pytest.raises(ValueError, match="unknown NoCConfig fields"):
        NoCConfig.from_dict({**cfg.to_dict(), "bogus": 1})


def test_cache_clear(cache):
    _engine(cache).run([_task()])
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


# -- atomic writes -------------------------------------------------------------

def test_interrupted_put_never_corrupts_a_warm_entry(cache, monkeypatch):
    """A writer killed mid-serialization must leave the previous
    complete entry in place — the temp-file + os.replace protocol means
    a reader only ever sees old-complete or new-complete."""
    import repro.harness.cache as cache_mod

    task = _task()
    old = _engine(cache).run([task])[0]
    assert cache.hits == 0 and len(cache) == 1

    real_dump = json.dump

    def exploding_dump(payload, fh, **kw):
        fh.write('{"schema": 1, "key": {}, "result":')  # partial bytes
        raise KeyboardInterrupt("writer killed mid-write")

    monkeypatch.setattr(cache_mod.json, "dump", exploding_dump)
    with pytest.raises(KeyboardInterrupt):
        cache.put(task.cache_key(), old)
    monkeypatch.setattr(cache_mod.json, "dump", real_dump)

    # the old entry must still load bit-identically, and no temp
    # droppings may remain
    assert cache.get(task.cache_key()) == old
    assert not list(cache.root.rglob("*.tmp"))


def test_concurrent_puts_leave_a_valid_entry(cache):
    """Threads hammering the same key must never produce a torn file:
    every interleaving ends with one complete, parseable entry."""
    import threading

    task = _task()
    result = _engine(cache).run([task])[0]
    key = task.cache_key()
    errors = []

    def hammer():
        try:
            for _ in range(25):
                cache.put(key, result)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    with open(cache.path_for(key)) as fh:
        payload = json.load(fh)  # parses => not torn
    assert payload["schema"] == CACHE_SCHEMA_VERSION
    assert cache.get(key) == result
    assert not list(cache.root.rglob("*.tmp"))


def test_atomic_write_json_direct(tmp_path):
    from repro.harness.cache import atomic_write_json

    target = tmp_path / "deep" / "nested" / "doc.json"
    atomic_write_json(target, {"a": 1})
    assert json.loads(target.read_text()) == {"a": 1}
    atomic_write_json(target, {"a": 2})  # overwrite is atomic too
    assert json.loads(target.read_text()) == {"a": 2}
    assert not list(tmp_path.rglob("*.tmp"))
