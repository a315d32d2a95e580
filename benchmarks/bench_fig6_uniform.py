"""Figure 6 — Uniform Random traffic: average latency, dynamic power and
total power vs. fraction of power-gated cores, at injection rates 0.02
and 0.08 flits/cycle/node, for Baseline / RP / rFLOV / gFLOV.

Expected shape (paper SS VI-B): FLOV latency below RP across fractions;
RP converges toward FLOV at high fractions; gFLOV has the lowest total
power everywhere; RP suffers more at the 0.08 rate.
"""

from _common import ENGINE, FRACTIONS, MEASURE, MECHANISMS, WARMUP, banner

from repro.harness import line_chart, run_sweep_spec, series_table
from repro.spec import SweepSpec


def _run(rate: float):
    return run_sweep_spec(
        SweepSpec(mechanisms=MECHANISMS, gated_fractions=FRACTIONS,
                  pattern="uniform", rates=(rate,), warmup=WARMUP,
                  measure=MEASURE), engine=ENGINE)


def _report(series, rate: float) -> None:
    print(series_table(f"Fig 6(a) avg packet latency (cycles), rate={rate}",
                       series, "avg_latency"))
    print()
    print(series_table(f"Fig 6(b) dynamic power (mW), rate={rate}",
                       series, "dynamic_w", scale=1e3))
    print()
    print(series_table(f"Fig 6(c) total power (mW), rate={rate}",
                       series, "total_w", scale=1e3))
    print()
    xs = [r.gated_fraction * 100 for r in series["baseline"]]
    print(line_chart(f"Fig 6(a) latency vs gated %, rate={rate}", xs,
                     {m: [r.avg_latency for r in rs]
                      for m, rs in series.items()},
                     ylabel="cycles", xlabel="gated %"))
    # shape assertions: who wins, where
    gflov, rp = series["gflov"], series["rp"]
    for i, frac in enumerate(FRACTIONS):
        if frac >= 0.2:
            assert gflov[i].total_w < rp[i].total_w * 1.02, (
                f"gFLOV should not exceed RP total power at {frac}")


def test_fig6_uniform_rate_002(benchmark):
    banner("Figure 6 (top row)", "Uniform Random @ 0.02 flits/cycle/node")
    series = benchmark.pedantic(_run, args=(0.02,), rounds=1, iterations=1)
    _report(series, 0.02)


def test_fig6_uniform_rate_008(benchmark):
    banner("Figure 6 (bottom row)", "Uniform Random @ 0.08 flits/cycle/node")
    series = benchmark.pedantic(_run, args=(0.08,), rounds=1, iterations=1)
    _report(series, 0.08)
