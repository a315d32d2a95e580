"""Checks on the benchmark itself (``python -m pytest bench -q``).

Outside tier-1.  Everything runs ``run.py`` in-process in its ``--quick``
1/10-size mode, whose numbers are not comparable with a full run's.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from time import perf_counter_ns

import pytest

import compare
import run

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SEED = 7


def bench(workload: str, trace: int, out: Path | None = None) -> dict:
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--quick"]
    if out is not None:
        argv += ["--out", str(out)]
    return run.main(argv)


def values(record: dict) -> dict[str, float]:
    return {k: m["value"] for k, m in record["metrics"].items()}


@pytest.fixture(scope="session")
def baseline(tmp_path_factory):
    """One untraced and one traced quick run of every workload, also
    written to a result file (the A side of the planted-slowdown tests)."""
    path = tmp_path_factory.mktemp("bench") / "A.json"
    records = {(w, t): bench(w, t, path) for w in WORKLOADS for t in (0, 1)}
    return path, records


def test_declared_names_are_what_is_printed(baseline):
    _, records = baseline
    for group, trace in (("end_to_end", 0), ("per_layer", 1)):
        units = {m["name"]: m["unit"] for m in DECLARED[group]}
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in units)
        for w in WORKLOADS:
            printed = records[w, trace]["metrics"]
            assert {k: m["unit"] for k, m in printed.items()} == units
    for w in WORKLOADS:
        assert records[w, 0]["correct"] and records[w, 1]["correct"]
        assert all(v != 0 for v in values(records[w, 0]).values())


def test_every_layer_belongs_to_a_workload_that_enters_it(baseline):
    _, records = baseline
    import wl_kernel
    import wl_service
    import wl_sweep
    owned = {run.TRACE_OVERHEAD, *wl_sweep.LAYERS, *wl_service.LAYERS}
    for names in wl_kernel.LAYERS.values():
        owned.update(names)
    declared = {m["name"] for m in DECLARED["per_layer"]}
    assert owned == declared
    # escaped packets are legitimately rare at this size
    for name in declared - {"noc.escaped_packets"}:
        assert any(values(records[w, 1])[name] != 0 for w in WORKLOADS), name


def test_exact_counts_and_simulated_metrics_repeat_for_a_seed(baseline):
    _, records = baseline
    counts = [m["name"] for m in DECLARED["per_layer"]
              if m["unit"] == "count"]
    for w in WORKLOADS:
        again = values(bench(w, 0))
        for name in compare.SIMULATED:
            assert again[name] == values(records[w, 0])[name], (w, name)
        again = values(bench(w, 1))
        for name in counts:
            assert again[name] == values(records[w, 1])[name], (w, name)


def test_a_run_leaves_no_scratch_behind(baseline):
    assert not list((BENCH / "out").glob("run-*"))
    for w in WORKLOADS:
        assert (BENCH / "out" / f"trace-{w}.jsonl").stat().st_size > 0


def slowed(fn, factor: float = 0.0, extra_ns: int = 0):
    """``fn`` followed by a spin of ``factor`` times its own duration
    plus ``extra_ns``."""
    def wrapper(*args, **kwargs):
        t0 = perf_counter_ns()
        out = fn(*args, **kwargs)
        until = t0 + (perf_counter_ns() - t0) * (1 + factor) + extra_ns
        while perf_counter_ns() < until:
            pass
        return out
    return wrapper


def plant_evaluate(monkeypatch):
    from repro.noc.router import Router
    monkeypatch.setattr(Router, "evaluate", slowed(Router.evaluate, 2.0))


def plant_cache_get(monkeypatch):
    from repro.harness import ResultCache
    monkeypatch.setattr(ResultCache, "get", slowed(ResultCache.get, 2.0))


def plant_envelope(monkeypatch):
    from repro.spec import JobEnvelope
    slow = slowed(JobEnvelope.from_payload, extra_ns=1_500_000)
    monkeypatch.setattr(JobEnvelope, "from_payload",
                        classmethod(lambda cls, *a, **k: slow(*a, **k)))


# ROADMAP item 1's acceptance test.  Each spin is sized to move the
# end-to-end metric by several times its bound, so that host noise in
# --quick mode cannot hide it; what is under test is the *name*.
@pytest.mark.parametrize("plant, workload, layer", [
    (plant_evaluate, "kernel_loaded", "noc.evaluate_us"),
    (plant_cache_get, "sweep_grid", "harness.cache_get_ms"),
    (plant_envelope, "service_jobs", "spec.envelope_us"),
])
def test_planted_slowdown_fails_compare_and_names_its_layer(
        baseline, tmp_path, monkeypatch, capsys, plant, workload, layer):
    a_path, _ = baseline
    plant(monkeypatch)
    b_path = tmp_path / "B.json"
    for trace in (0, 1):
        bench(workload, trace, b_path)
    capsys.readouterr()
    assert compare.main([str(a_path), str(b_path)]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if "regressed" in line]
    assert rows and all(line.startswith(workload) for line in rows)
    assert any(f"<- {layer} " in line for line in rows), rows


def test_compare_verdicts():
    assert compare.verdict([1.0], [1.05], "lower", 0.10)[0] == "ok"
    assert compare.verdict([1.0], [1.2], "lower", 0.10)[0] == "regressed"
    assert compare.verdict([1.0], [0.8], "higher", 0.10)[0] == "regressed"
    assert compare.verdict([1.0], [0.8], "lower", 0.10)[0] == "ok"
    noisy = [1.0, 1.3, 0.8, 1.2]
    assert compare.verdict(noisy, [1.5] * 4, "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(noisy, [0.5] * 4, "lower", 0.10)[0] == "ok"


def test_compare_flags_changed_exact_values(tmp_path):
    def doc(packets):
        metric = {"noc.packets_measured": {"value": packets, "unit": "count"}}
        return {"schema": 1, "runs": [{
            "workload": "kernel_gated", "seed": 1, "trace": 1, "quick": True,
            "attempted": 1, "failed": 0, "metrics": {
                m["name"]: metric.get(m["name"], {"value": 1, "unit": "x"})
                for m in DECLARED["per_layer"]}}]}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc(100)))
    b.write_text(json.dumps(doc(101)))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(b), "--model-changed"]) == 0
