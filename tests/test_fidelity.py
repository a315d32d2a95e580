"""Fidelity: the paper's qualitative results, asserted on fixed cells.

Each test states the shape the paper reports for one table, figure or
ablation — who wins, where, and roughly by how much.  The Figure 6/7/9
grids are loaded from the checked-in spec files under
``examples/specs/`` (the same cells whose tables EXPERIMENTS.md pins);
the remaining cells are spelled out here.  Every run bypasses the
result cache, so a simulator change cannot hide behind a stale entry.

The 0.08-rate halves of Figs. 6/7 (~20 s) and the PARSEC headline
(~140 s) on a 2-core host are marked ``soak`` (``pytest -m soak``).
"""

import dataclasses
import functools
from pathlib import Path

import pytest

from repro.config import TECH, NoCConfig, table1_config
from repro.fullsystem import PARSEC
from repro.gating.schedule import random_epochs
from repro.harness import (FIGURE_MECHANISMS, ParallelSweep, SweepTask,
                           run_spec, run_sweep_spec)
from repro.noc.stats import StatsCollector
from repro.power.dsent import link_static_w, router_breakdown
from repro.power.overhead import flov_overhead_report
from repro.spec import ExperimentSpec, SweepSpec, load_spec_file

SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"

#: the short horizon shared by the ablations and the NoRD extension
WARMUP, MEASURE = 1_000, 5_000

soak_rate = pytest.param(0.08, marks=pytest.mark.soak)


def engine() -> ParallelSweep:
    return ParallelSweep(use_cache=False)


def run(tasks):
    return engine().run(tasks)


@functools.cache
def figure(name: str, rate: float):
    """One rate of a checked-in figure spec, run once per session."""
    spec = load_spec_file(str(SPECS / name))
    return run_sweep_spec(dataclasses.replace(spec, rates=(rate,)),
                          engine=engine())


# -- Table I and SS V-A --------------------------------------------------------

def test_table1_configuration():
    cfg = table1_config()
    assert (cfg.width, cfg.height) == (8, 8)
    assert cfg.buffer_depth == 6 and cfg.router_latency == 3
    assert cfg.num_vcs == 3 and cfg.escape_vcs == 1
    assert cfg.wakeup_latency == 10
    assert TECH.gating_overhead_j == 17.7e-12
    assert TECH.frequency_hz == 2.0e9


def test_overhead_analysis():
    report = flov_overhead_report(NoCConfig())
    # paper: 2 sets of 4-entry 2-bit PSRs = 16 bits; 6 HSC wires/neighbor
    assert report.psr_bits == 16
    assert report.hsc_wires_per_neighbor == 6
    # FLOV additions ~3% of the baseline router
    assert 0.01 < report.power_overhead_fraction < 0.06
    bd = router_breakdown(NoCConfig())
    assert report.power_overhead_fraction == (
        bd.flov_overhead / bd.baseline_total)
    assert link_static_w(NoCConfig()) > 0


# -- Figures 6-9 ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["fig6_uniform.toml", "fig7_tornado.toml"])
@pytest.mark.parametrize("rate", [0.02, soak_rate])
def test_fig6_fig7_gflov_total_power_not_above_rp(name, rate):
    series = figure(name, rate)
    for g, rp in zip(series["gflov"], series["rp"]):
        if g.gated_fraction >= 0.2:
            assert g.total_w < rp.total_w * 1.02, (
                f"gFLOV should not exceed RP total power at "
                f"{g.gated_fraction}")


def test_fig8a_flov_latency_component():
    series = figure("fig6_uniform.toml", 0.02)
    # the FLOV latency component grows with gating for gFLOV
    g = series["gflov"]
    assert g[-1].breakdown.flov > g[0].breakdown.flov
    assert series["baseline"][-1].breakdown.flov == 0
    assert series["rp"][-1].breakdown.flov == 0


def test_fig9_static_power():
    series = figure("fig9_static.toml", 0.02)
    base = series["baseline"]
    rp, rf, gf = series["rp"], series["rflov"], series["gflov"]
    for i, b in enumerate(base):
        frac = b.gated_fraction
        assert abs(b.static_w - base[0].static_w) < 1e-4
        if frac > 0:
            assert gf[i].static_w < b.static_w
        if frac >= 0.6:
            # rFLOV saturates: it ends up above RP (paper SS VI-B-2)
            assert gf[i].static_w <= rp[i].static_w + 1e-4
            assert rf[i].static_w >= rp[i].static_w - 1e-4


# -- Figure 10 -----------------------------------------------------------------

def test_fig10_reconfiguration_spike():
    """Uniform @ 0.02, 10% gated, the gated set changed at 50% and 60%
    of the run.  RP's Fabric Manager stalls injection for the >700-cycle
    Phase I at every change; gFLOV reconfigures without a global stall."""
    total = 20_000
    change1, change2 = total // 2, int(total * 0.6)
    window = total // 40
    mechs = ("rp", "gflov")
    results = run([SweepTask(ExperimentSpec(mech, pattern="uniform",
                                            rate=0.02, warmup=0,
                                            measure=total,
                                            keep_samples=True, seed=9),
                             schedule=random_epochs(64, [0.10, 0.10, 0.10],
                                                    [change1, change2],
                                                    seed=9))
                   for mech in mechs])
    peaks = {}
    for mech, res in zip(mechs, results):
        sc = StatsCollector(3, keep_samples=True)
        sc.samples = res.samples
        sc.measured_packets = 1  # enable windowing
        series = sc.latency_windows(window)
        after = [w.avg for w in series
                 if change1 <= w.start < change1 + 4 * window]
        steady = [w.avg for w in series if w.start < change1 - window]
        peaks[mech] = (max(after), sum(steady) / len(steady))
    rp_peak, rp_steady = peaks["rp"]
    g_peak, g_steady = peaks["gflov"]
    assert rp_peak > 5 * rp_steady, "RP reconfiguration spike missing"
    assert g_peak < 2 * g_steady, "gFLOV should not spike at changes"
    assert g_peak < rp_peak / 3, "gFLOV should not spike like RP"


# -- ablations -----------------------------------------------------------------

def test_ablation_wakeup_latency():
    """A1: longer power-on sequences delay held packets (gating churn)."""
    period = max(MEASURE // 6, 500)
    bounds = [period * (i + 1) for i in range(5)]
    wls = (5, 10, 20, 50, 100)
    results = dict(zip(wls, run([
        SweepTask(ExperimentSpec("gflov", rate=0.02, warmup=0,
                                 measure=WARMUP + MEASURE, seed=11,
                                 overrides={"wakeup_latency": wl}),
                  schedule=random_epochs(64, [0.5, 0.2, 0.5, 0.3, 0.5, 0.2],
                                         bounds, seed=11))
        for wl in wls])))
    for r in results.values():
        assert r.gating_events > 0, "churn workload must exercise wakeups"
    assert results[100].avg_latency >= results[5].avg_latency


def test_ablation_escape_timeout():
    """A2: the blocked-quadrant holds pay roughly the timeout."""
    tos = (8, 16, 32, 64, 128)
    results = dict(zip(tos, run([
        SweepTask(ExperimentSpec("gflov", rate=0.02, gated_fraction=0.4,
                                 warmup=WARMUP, measure=MEASURE, seed=11,
                                 overrides={"escape_timeout": to}))
        for to in tos])))
    assert results[128].avg_latency > results[16].avg_latency


def test_ablation_mesh_size():
    """A3: a distributed mechanism's savings persist as the mesh grows."""
    ks = (4, 6, 8, 12)
    results = run([
        SweepTask(ExperimentSpec(mech, rate=0.02, gated_fraction=0.5,
                                 warmup=WARMUP // 2, measure=MEASURE // 2,
                                 seed=11, overrides={"width": k,
                                                     "height": k}))
        for k in ks for mech in ("baseline", "gflov")])
    pairs = {k: (results[2 * i], results[2 * i + 1])
             for i, k in enumerate(ks)}
    for base, g in pairs.values():
        assert g.static_w < base.static_w
    small = 1 - pairs[4][1].static_w / pairs[4][0].static_w
    large = 1 - pairs[12][1].static_w / pairs[12][0].static_w
    assert large > small * 0.7


def test_ablation_rp_policy():
    """A4 (paper SS VI-B): adaptive RP keeps more routers on, buying
    latency with static power."""
    policies = ("aggressive", "adaptive")
    agg, ada = run([
        SweepTask(ExperimentSpec("rp", rate=0.08, gated_fraction=0.5,
                                 warmup=WARMUP, measure=MEASURE, seed=17,
                                 overrides={"rp_policy": policy}))
        for policy in policies])
    assert ada.power_states.get("SLEEP", 0) <= agg.power_states.get("SLEEP", 0)
    assert ada.static_w >= agg.static_w - 1e-6


def test_ablation_saturation():
    """A5: latency grows monotonically with load at 40% gated."""
    series = run_sweep_spec(
        SweepSpec(mechanisms=("baseline", "gflov"),
                  rates=(0.05, 0.15, 0.25), gated_fractions=(0.4,),
                  warmup=WARMUP // 2, measure=MEASURE // 2, seed=17),
        engine=engine())
    for mech in ("baseline", "gflov"):
        lats = [r.avg_latency for r in series[mech]]
        assert lats[0] < lats[-1]


# -- NoRD extension (paper SS II) ----------------------------------------------

def test_nord_vs_gflov():
    """NoRD saves static power but pays ring latency at higher gating."""
    mechs, fracs = ("gflov", "nord"), (0.2, 0.4, 0.6)
    results = run([
        SweepTask(ExperimentSpec(mech, rate=0.02, gated_fraction=frac,
                                 warmup=WARMUP, measure=MEASURE, seed=13))
        for mech in mechs for frac in fracs])
    g6, n6 = results[2], results[5]  # 60 % gated
    assert n6.static_w < 1.02 * g6.static_w or n6.avg_latency > g6.avg_latency


def test_nord_ring_scaling():
    """The paper's scalability critique: a bypass ring's relative latency
    cost grows with the mesh."""
    ks, mechs = (4, 8, 12), ("gflov", "nord")
    results = run([
        SweepTask(ExperimentSpec(mech, rate=0.02, gated_fraction=0.2,
                                 warmup=WARMUP // 2, measure=MEASURE // 2,
                                 seed=13, overrides={"width": k,
                                                     "height": k}))
        for k in ks for mech in mechs])
    ratios = {k: results[2 * i + 1].avg_latency / results[2 * i].avg_latency
              for i, k in enumerate(ks)}
    assert ratios[12] > ratios[4]


# -- Figure 8(c,d) + headline: PARSEC full system --------------------------------

@pytest.mark.soak
def test_fig8cd_parsec_headline():
    """Paper SS VI-B3: FLOV cuts static energy ~43% vs Baseline and ~22%
    vs RP, total energy ~18% vs RP, at ~1% performance loss.  Our
    substrate is synthetic and the runs short, so the *shape* is
    asserted: large static savings vs Baseline, additional savings vs
    RP, small runtime penalty."""
    wargs = {"instructions": 600, "max_cycles": 250_000}
    specs = [ExperimentSpec(mech, workload=bench, workload_args=wargs,
                            seed=5)
             for bench in PARSEC for mech in FIGURE_MECHANISMS]
    results = dict(zip(((s.workload, s.mechanism) for s in specs),
                       engine().map_callable(run_spec, specs)))
    avg = {}
    for mech in ("rp", "gflov"):
        ratios = {"static": [], "total": [], "runtime": []}
        for bench in PARSEC:
            base, r = results[(bench, "baseline")], results[(bench, mech)]
            ratios["static"].append(r.static_j / base.static_j)
            ratios["total"].append(r.total_j / base.total_j)
            ratios["runtime"].append(r.runtime_cycles / base.runtime_cycles)
        avg[mech] = {k: sum(v) / len(v) for k, v in ratios.items()}
    for (bench, mech), r in results.items():
        assert r.finished, f"{bench}/{mech} did not finish"
    g, rp = avg["gflov"], avg["rp"]
    assert g["static"] < 0.90, "gFLOV should save substantial static energy"
    assert g["static"] < rp["static"], "gFLOV should beat RP on static"
    assert g["total"] < rp["total"], "gFLOV should beat RP on total energy"
    assert g["runtime"] < 1.08, "gFLOV performance loss should be small"
