"""Figure 8(a,b) — average packet latency broken into accumulated router
latency (hops x 3-cycle pipeline), link latency, serialization latency,
FLOV latency (latch hops) and contention latency, under Uniform Random
and Tornado traffic at 0.02 flits/cycle/node.

Expected shape: RP's router component exceeds FLOV's (non-minimal
detours through powered routers); the FLOV component grows with the
gated fraction under Uniform Random and stays small under Tornado
(row-local traffic, AON column powered).
"""

from _common import ENGINE, FRACTIONS, MEASURE, MECHANISMS, WARMUP, banner

from repro.harness import breakdown_table, run_sweep_spec
from repro.spec import SweepSpec


def _run(pattern: str):
    fr = [f for f in FRACTIONS if f in (0.0, 0.2, 0.4, 0.6, 0.8)]
    return run_sweep_spec(
        SweepSpec(mechanisms=MECHANISMS, gated_fractions=fr,
                  pattern=pattern, rates=(0.02,), warmup=WARMUP,
                  measure=MEASURE), engine=ENGINE)


def test_fig8a_uniform_breakdown(benchmark):
    banner("Figure 8(a)", "latency breakdown, Uniform Random @ 0.02")
    series = benchmark.pedantic(_run, args=("uniform",), rounds=1,
                                iterations=1)
    print(breakdown_table("Fig 8(a) latency components (cycles)", series))
    # FLOV latency component grows with gating for the FLOV mechanisms
    g = series["gflov"]
    assert g[-1].breakdown.flov > g[0].breakdown.flov
    assert series["baseline"][-1].breakdown.flov == 0
    assert series["rp"][-1].breakdown.flov == 0


def test_fig8b_tornado_breakdown(benchmark):
    banner("Figure 8(b)", "latency breakdown, Tornado @ 0.02")
    series = benchmark.pedantic(_run, args=("tornado",), rounds=1,
                                iterations=1)
    print(breakdown_table("Fig 8(b) latency components (cycles)", series))
