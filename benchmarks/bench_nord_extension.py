"""Extension — NoRD-style bypass ring vs. FLOV (paper SS II).

The paper dismisses NoRD because "a bypass ring is not scalable to large
network sizes". We implemented a NoRD-style mechanism and measure both
claims: comparable static savings at 8x8, but ring-serialized latency
for traffic involving gated regions, growing with the mesh size while
FLOV's fly-over latency stays per-hop.
"""

from _common import ENGINE, MEASURE, WARMUP, banner

from repro.harness import SweepTask
from repro.spec import ExperimentSpec


def test_nord_vs_gflov(benchmark):
    banner("Extension", "NoRD-style ring vs. gFLOV (uniform @ 0.02)")

    def run():
        mechs, fracs = ("gflov", "nord"), (0.2, 0.4, 0.6)
        tasks = [SweepTask(ExperimentSpec(
                     mech, rate=0.02, gated_fraction=frac,
                     warmup=WARMUP, measure=MEASURE, seed=13))
                 for mech in mechs for frac in fracs]
        results = ENGINE.run(tasks)
        return {mech: dict(zip(fracs,
                               results[i * len(fracs):(i + 1) * len(fracs)]))
                for i, mech in enumerate(mechs)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"{'gated%':>7} {'gflov lat':>10} {'nord lat':>9} "
          f"{'gflov stat mW':>14} {'nord stat mW':>13}")
    for frac in (0.2, 0.4, 0.6):
        g = results["gflov"][frac]
        n = results["nord"][frac]
        print(f"{frac * 100:7.0f} {g.avg_latency:10.2f} {n.avg_latency:9.2f} "
              f"{g.static_w * 1e3:14.1f} {n.static_w * 1e3:13.1f}")
    # NoRD saves static power but pays ring latency at higher gating
    g6, n6 = results["gflov"][0.6], results["nord"][0.6]
    assert n6.static_w < 1.02 * g6.static_w or n6.avg_latency > g6.avg_latency


def test_nord_ring_scaling(benchmark):
    banner("Extension", "ring-latency scaling: NoRD vs gFLOV, 20% gated")

    def run():
        ks, mechs = (4, 8, 12), ("gflov", "nord")
        tasks = [SweepTask(ExperimentSpec(
                     mech, rate=0.02, gated_fraction=0.2,
                     warmup=WARMUP // 2, measure=MEASURE // 2, seed=13,
                     overrides={"width": k, "height": k}))
                 for k in ks for mech in mechs]
        results = ENGINE.run(tasks)
        return {k: {mech: results[i * len(mechs) + j]
                    for j, mech in enumerate(mechs)}
                for i, k in enumerate(ks)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"{'mesh':>6} {'gflov lat':>10} {'nord lat':>9} {'ratio':>7}")
    ratios = {}
    for k, d in results.items():
        ratio = d["nord"].avg_latency / d["gflov"].avg_latency
        ratios[k] = ratio
        print(f"{k}x{k:<4} {d['gflov'].avg_latency:10.2f} "
              f"{d['nord'].avg_latency:9.2f} {ratio:7.2f}")
    # the paper's scalability critique: NoRD's relative cost grows
    assert ratios[12] > ratios[4]
