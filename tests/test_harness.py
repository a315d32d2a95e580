"""Harness tests: runner metrics, sweeps, table renderers."""

import pytest

from repro.harness import (breakdown_table, default_cycles,
                           normalized_table, run_spec, run_sweep_spec,
                           series_table)
from repro.spec import ExperimentSpec, SweepSpec


def quick(mech="baseline", **kw):
    kw.setdefault("warmup", 300)
    kw.setdefault("measure", 1200)
    return run_spec(ExperimentSpec(mech, **kw))


def test_runner_returns_consistent_metrics():
    r = quick("gflov", gated_fraction=0.3)
    assert r.mechanism == "gflov"
    assert r.packets > 0
    assert r.avg_latency > 10
    assert r.total_w == pytest.approx(r.static_w + r.dynamic_w, rel=1e-6)
    assert r.total_j == pytest.approx(r.static_j + r.dynamic_j, rel=1e-6)
    assert r.sleeping_routers > 0
    assert abs(r.breakdown.total - r.avg_latency) < 1e-6


def test_runner_deterministic():
    a = quick("rflov", gated_fraction=0.2, seed=3)
    b = quick("rflov", gated_fraction=0.2, seed=3)
    assert a.avg_latency == b.avg_latency
    assert a.total_j == b.total_j


def test_runner_seed_changes_results():
    a = quick(seed=3)
    b = quick(seed=4)
    assert a.avg_latency != b.avg_latency


def test_runner_config_overrides():
    r = quick(overrides={"width": 4, "height": 4})
    assert r.packets > 0


def test_runner_keep_samples():
    r = quick(keep_samples=True)
    assert len(r.samples) == r.packets


def test_default_cycles_constant():
    """No environment knob changes the cycle defaults: a spec that
    leaves them unset names the same run everywhere."""
    assert default_cycles() == (2_000, 10_000)


def test_sweep_fraction_grid_shape():
    out = run_sweep_spec(SweepSpec(mechanisms=["baseline", "gflov"],
                                   gated_fractions=[0.0, 0.4],
                                   warmup=200, measure=800))
    assert set(out) == {"baseline", "gflov"}
    assert [r.gated_fraction for r in out["gflov"]] == [0.0, 0.4]


def test_sweep_rate_grid_shape():
    out = run_sweep_spec(SweepSpec(mechanisms=["baseline"],
                                   rates=[0.01, 0.02],
                                   warmup=200, measure=800))
    assert [r.rate for r in out["baseline"]] == [0.01, 0.02]


def _fake_results():
    out = {}
    for mech in ("baseline", "gflov"):
        rs = []
        for frac in (0.0, 0.5):
            r = quick(mech, gated_fraction=frac, measure=600)
            rs.append(r)
        out[mech] = rs
    return out


def test_series_table_renders():
    t = series_table("T", _fake_results(), "avg_latency")
    assert "baseline" in t and "gflov" in t
    assert "50" in t  # fraction row


def test_breakdown_table_renders():
    t = breakdown_table("B", _fake_results())
    assert "router" in t and "flov" in t and "contend" in t


def test_tables_label_rows_by_rate_when_series_spans_rates():
    """Regression: a multi-rate sweep printed rows labelled only by
    gated% (``0, 40, 0, 40``), which cannot be told apart."""
    out = run_sweep_spec(SweepSpec(mechanisms=["baseline"],
                                   rates=[0.02, 0.08],
                                   gated_fractions=[0.0, 0.4],
                                   warmup=50, measure=200,
                                   overrides={"width": 4, "height": 4}))
    rows = series_table("T", out, "avg_latency").splitlines()[3:]
    assert [row.rsplit("|", 1)[0].split() for row in rows] == [
        ["0.02", "|", "0"], ["0.02", "|", "40"],
        ["0.08", "|", "0"], ["0.08", "|", "40"]]
    rows = breakdown_table("B", out).splitlines()[3:]
    assert [row.split()[1:3] for row in rows] == [
        ["0.02", "0"], ["0.02", "40"], ["0.08", "0"], ["0.08", "40"]]
    # one rate: the layout CI greps and EXPERIMENTS.md pins is unchanged
    single = {m: rs[:2] for m, rs in out.items()}
    lines = series_table("T", single, "avg_latency").splitlines()
    assert lines[1] == "  gated% |  baseline"
    assert [ln[:11] for ln in lines[3:]] == ["       0 | ", "      40 | "]
    lines = breakdown_table("B", single).splitlines()
    assert lines[1].split()[:3] == ["mech", "gated%", "router"]
    assert lines[3].split()[:2] == ["baseline", "0"]


def test_normalized_table():
    rows = {"base": {"m": 2.0}, "x": {"m": 1.0}}
    t = normalized_table("N", rows, "base")
    assert "0.500" in t and "1.000" in t
