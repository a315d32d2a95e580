"""Figure 7 — Tornado traffic: latency, dynamic and total power vs.
gated-core fraction at rates 0.02 / 0.08.

Expected shape: under tornado most traffic stays within a row, so FLOV
links give minimal paths without the 3-cycle pipeline — rFLOV/gFLOV can
even beat the all-on Baseline's latency; gFLOV keeps the lowest total
power.
"""

from _common import ENGINE, FRACTIONS, MEASURE, MECHANISMS, WARMUP, banner

from repro.harness import line_chart, run_sweep_spec, series_table
from repro.spec import SweepSpec


def _run(rate: float):
    return run_sweep_spec(
        SweepSpec(mechanisms=MECHANISMS, gated_fractions=FRACTIONS,
                  pattern="tornado", rates=(rate,), warmup=WARMUP,
                  measure=MEASURE), engine=ENGINE)


def _report(series, rate: float) -> None:
    print(series_table(f"Fig 7(a) avg packet latency (cycles), rate={rate}",
                       series, "avg_latency"))
    print()
    print(series_table(f"Fig 7(b) dynamic power (mW), rate={rate}",
                       series, "dynamic_w", scale=1e3))
    print()
    print(series_table(f"Fig 7(c) total power (mW), rate={rate}",
                       series, "total_w", scale=1e3))
    print()
    xs = [r.gated_fraction * 100 for r in series["baseline"]]
    print(line_chart(f"Fig 7(a) latency vs gated %, rate={rate}", xs,
                     {m: [r.avg_latency for r in rs]
                      for m, rs in series.items()},
                     ylabel="cycles", xlabel="gated %"))
    gflov, rp = series["gflov"], series["rp"]
    for i, frac in enumerate(FRACTIONS):
        if frac >= 0.2:
            assert gflov[i].total_w < rp[i].total_w * 1.02


def test_fig7_tornado_rate_002(benchmark):
    banner("Figure 7 (top row)", "Tornado @ 0.02 flits/cycle/node")
    series = benchmark.pedantic(_run, args=(0.02,), rounds=1, iterations=1)
    _report(series, 0.02)


def test_fig7_tornado_rate_008(benchmark):
    banner("Figure 7 (bottom row)", "Tornado @ 0.08 flits/cycle/node")
    series = benchmark.pedantic(_run, args=(0.08,), rounds=1, iterations=1)
    _report(series, 0.08)
