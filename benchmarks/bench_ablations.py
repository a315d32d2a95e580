"""Ablation benches for the design parameters DESIGN.md calls out:

* A1 — wakeup latency sweep (Table I uses 10 cycles): how sensitive is
  gFLOV's latency to slower power-on circuits?
* A2 — escape-VC timeout threshold: the Duato-recovery trigger trades
  hold time against escape-path detours.
* A3 — mesh size scaling (4x4 -> 12x12): FLOV is distributed, so its
  benefit should persist as the mesh grows (unlike NoRD's ring or RP's
  centralized FM).
"""

from _common import ENGINE, FULL, banner

from repro.harness import SweepTask
from repro.spec import ExperimentSpec, SweepSpec

MEASURE = 30_000 if FULL else 5_000
WARMUP = 3_000 if FULL else 1_000


def test_ablation_wakeup_latency(benchmark):
    banner("Ablation A1",
           "gFLOV latency vs. wakeup latency (gating churn workload)")

    def run():
        from repro.gating.schedule import random_epochs
        period = max(MEASURE // 6, 500)
        bounds = [period * (i + 1) for i in range(5)]
        wls = (5, 10, 20, 50, 100)
        tasks = [SweepTask(ExperimentSpec(
                               "gflov", rate=0.02, warmup=0,
                               measure=WARMUP + MEASURE, seed=11,
                               overrides={"wakeup_latency": wl}),
                           schedule=random_epochs(
                               64, [0.5, 0.2, 0.5, 0.3, 0.5, 0.2],
                               bounds, seed=11))
                 for wl in wls]
        return dict(zip(wls, ENGINE.run(tasks)))

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"{'wakeup_latency':>15} {'avg_latency':>12} {'gating_events':>14}")
    for wl, r in results.items():
        print(f"{wl:15d} {r.avg_latency:12.2f} {r.gating_events:14d}")
        assert r.gating_events > 0, "churn workload must exercise wakeups"
    # longer power-on sequences delay held packets: latency rises
    assert results[100].avg_latency >= results[5].avg_latency


def test_ablation_escape_timeout(benchmark):
    banner("Ablation A2", "gFLOV latency vs. escape timeout (40% gated)")

    def run():
        tos = (8, 16, 32, 64, 128)
        tasks = [SweepTask(ExperimentSpec(
                     "gflov", rate=0.02, gated_fraction=0.4,
                     warmup=WARMUP, measure=MEASURE, seed=11,
                     overrides={"escape_timeout": to}))
                 for to in tos]
        return dict(zip(tos, ENGINE.run(tasks)))

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"{'escape_timeout':>15} {'avg_latency':>12} {'escaped':>9}")
    for to, r in results.items():
        print(f"{to:15d} {r.avg_latency:12.2f} {r.escaped:9d}")
    # the blocked-quadrant holds pay roughly the timeout: latency rises
    assert results[128].avg_latency > results[16].avg_latency


def test_ablation_mesh_size(benchmark):
    banner("Ablation A3", "gFLOV vs Baseline static power across mesh sizes")

    def run():
        ks = (4, 6, 8, 12)
        tasks = [SweepTask(ExperimentSpec(
                     mech, rate=0.02, gated_fraction=0.5,
                     warmup=WARMUP // 2, measure=MEASURE // 2, seed=11,
                     overrides={"width": k, "height": k}))
                 for k in ks for mech in ("baseline", "gflov")]
        results = ENGINE.run(tasks)
        return {k: (results[2 * i], results[2 * i + 1])
                for i, k in enumerate(ks)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"{'mesh':>6} {'base_static_mW':>15} {'gflov_static_mW':>16} "
          f"{'saving':>8} {'gflov_lat':>10}")
    for k, (base, g) in results.items():
        saving = 1 - g.static_w / base.static_w
        print(f"{k}x{k:<4} {base.static_w * 1e3:15.1f} "
              f"{g.static_w * 1e3:16.1f} {saving:8.1%} {g.avg_latency:10.1f}")
        assert g.static_w < base.static_w
    # distributed mechanism: savings do not collapse at larger meshes
    small = 1 - results[4][1].static_w / results[4][0].static_w
    large = 1 - results[12][1].static_w / results[12][0].static_w
    assert large > small * 0.7


def test_ablation_rp_policy(benchmark):
    banner("Ablation A4", "RP parking policy: aggressive vs adaptive")

    def run():
        policies = ("aggressive", "adaptive")
        tasks = [SweepTask(ExperimentSpec(
                     "rp", rate=0.08, gated_fraction=0.5,
                     warmup=WARMUP, measure=MEASURE, seed=17,
                     overrides={"rp_policy": policy}))
                 for policy in policies]
        return dict(zip(policies, ENGINE.run(tasks)))

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"{'policy':>12} {'latency':>9} {'static mW':>10} {'parked':>7}")
    for policy, r in results.items():
        parked = r.power_states.get("SLEEP", 0)
        print(f"{policy:>12} {r.avg_latency:9.2f} "
              f"{r.static_w * 1e3:10.1f} {parked:7d}")
    agg, ada = results["aggressive"], results["adaptive"]
    # the RP trade-off (paper SS VI-B): adaptive keeps more routers on,
    # buying latency with static power
    assert ada.power_states.get("SLEEP", 0) <= agg.power_states.get("SLEEP", 0)
    assert ada.static_w >= agg.static_w - 1e-6


def test_ablation_saturation(benchmark):
    banner("Ablation A5", "saturation behavior at 40% gated (uniform)")

    def run():
        from repro.harness import run_sweep_spec
        return run_sweep_spec(
            SweepSpec(mechanisms=("baseline", "gflov"),
                      rates=(0.05, 0.15, 0.25), gated_fractions=(0.4,),
                      warmup=WARMUP // 2, measure=MEASURE // 2, seed=17),
            engine=ENGINE)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"{'rate':>6} {'baseline lat':>13} {'gflov lat':>10} "
          f"{'baseline thr':>13} {'gflov thr':>10}")
    for i, rate in enumerate((0.05, 0.15, 0.25)):
        b, g = results["baseline"][i], results["gflov"][i]
        print(f"{rate:6.2f} {b.avg_latency:13.1f} {g.avg_latency:10.1f} "
              f"{b.throughput:13.4f} {g.throughput:10.4f}")
    # both saturate gracefully; latency grows monotonically with load
    for mech in ("baseline", "gflov"):
        lats = [r.avg_latency for r in results[mech]]
        assert lats[0] < lats[-1]
