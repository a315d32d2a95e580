"""Figure 10 — reconfiguration overhead of RP vs. gFLOV.

Uniform Random @ 0.02 flits/cycle/node with 10% of cores gated; the
gated set changes twice mid-run (at the paper's 50k/60k cycle points,
scaled to the run length). RP's Fabric Manager stalls all new injections
for the >700-cycle Phase I at every change, producing latency spikes in
the timeline; gFLOV reconfigures in a distributed fashion and stays flat.
"""

from _common import ENGINE, FULL, banner

from repro.gating.schedule import random_epochs
from repro.harness import SweepTask, timeline_table
from repro.spec import ExperimentSpec

TOTAL = 100_000 if FULL else 20_000
CHANGE1, CHANGE2 = TOTAL // 2, int(TOTAL * 0.6)
WINDOW = TOTAL // 40

MECHS = ("rp", "gflov")


def _run():
    series = {}
    peaks = {}
    # schedule-carrying tasks are uncacheable but still fan out in the pool
    tasks = [SweepTask(ExperimentSpec(mech, pattern="uniform", rate=0.02,
                                      warmup=0, measure=TOTAL,
                                      keep_samples=True, seed=9),
                       schedule=random_epochs(64, [0.10, 0.10, 0.10],
                                              [CHANGE1, CHANGE2], seed=9))
             for mech in MECHS]
    results = ENGINE.run(tasks)
    for mech, res in zip(MECHS, results):
        from repro.noc.stats import StatsCollector
        sc = StatsCollector(3, keep_samples=True)
        sc.samples = res.samples
        sc.measured_packets = 1  # enable windowing
        series[mech] = sc.windowed_latency(WINDOW)
        window_after_change = [lat for t, lat in series[mech]
                               if CHANGE1 <= t < CHANGE1 + 4 * WINDOW]
        steady = [lat for t, lat in series[mech] if t < CHANGE1 - WINDOW]
        peaks[mech] = (max(window_after_change), sum(steady) / len(steady))
    return series, peaks


def test_fig10_reconfiguration_timeline(benchmark):
    banner("Figure 10", "RP reconfiguration overhead vs. gFLOV (10% gated)")
    series, peaks = benchmark.pedantic(_run, rounds=1, iterations=1)
    print(timeline_table("Fig 10 avg packet latency per window (cycles)",
                         series, window=WINDOW))
    rp_peak, rp_steady = peaks["rp"]
    g_peak, g_steady = peaks["gflov"]
    print(f"\nRP: steady {rp_steady:.1f}, post-change peak {rp_peak:.1f} "
          f"(spike x{rp_peak / rp_steady:.1f})")
    print(f"gFLOV: steady {g_steady:.1f}, post-change peak {g_peak:.1f}")
    # RP's Phase-I stall (>700 cycles of queued injections) must show up
    # as a large spike in the windowed average; gFLOV stays flat
    assert rp_peak > 5 * rp_steady, "RP reconfiguration spike missing"
    assert g_peak < 2 * g_steady, "gFLOV should not spike at changes"
    assert g_peak < rp_peak / 3, "gFLOV should not spike like RP"
