"""Figure 9 — static power vs. fraction of power-gated cores.

Static power is workload-independent for FLOV (all gateable routers
attached to gated cores sleep in gFLOV; rFLOV is limited by its
adjacency restriction) and we compare against the *aggressive* RP
policy, as the paper does.

Expected shape: Baseline flat; all gating curves decrease; at high
fractions gFLOV < RP < rFLOV; the gFLOV/RP gap widens with the
fraction; rFLOV saturates near half the routers gated.
"""

from _common import ENGINE, FRACTIONS, MECHANISMS, banner

from repro.harness import line_chart, run_sweep_spec, series_table
from repro.spec import SweepSpec


def _run():
    return run_sweep_spec(
        SweepSpec(mechanisms=MECHANISMS, gated_fractions=FRACTIONS,
                  pattern="uniform", rates=(0.02,), warmup=1_000,
                  measure=4_000, overrides={"rp_policy": "aggressive"}),
        engine=ENGINE)


def test_fig9_static_power(benchmark):
    banner("Figure 9", "static power comparison (aggressive RP)")
    series = benchmark.pedantic(_run, rounds=1, iterations=1)
    print(series_table("Fig 9 static power (mW)", series, "static_w",
                       scale=1e3))
    print()
    print(series_table("   sleeping routers", series, "sleeping_routers",
                       prec=0))
    print()
    xs = [f * 100 for f in FRACTIONS]
    print(line_chart("Fig 9 static power vs gated %", xs,
                     {m: [r.static_w * 1e3 for r in rs]
                      for m, rs in series.items()},
                     ylabel="mW", xlabel="gated %"))
    base = series["baseline"]
    rp, rf, gf = series["rp"], series["rflov"], series["gflov"]
    for i, frac in enumerate(FRACTIONS):
        assert abs(base[i].static_w - base[0].static_w) < 1e-4
        if frac > 0:
            assert gf[i].static_w < base[i].static_w
        if frac >= 0.6:
            # rFLOV saturates: it ends up above RP (paper SS VI-B-2)
            assert gf[i].static_w <= rp[i].static_w + 1e-4
            assert rf[i].static_w >= rp[i].static_w - 1e-4
