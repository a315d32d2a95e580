#!/usr/bin/env python3
"""Scenario: a server CMP through a duty cycle.

The OS consolidates threads as load falls and spreads them as load
rises: 10% of cores gated at "peak", 70% at "night", with transitions in
between. We compare how the three gating mechanisms ride the schedule —
the effect the paper's Figure 10 isolates: RP's centralized fabric
manager stalls the network at every transition, while FLOV reconfigures
router-by-router.

Run:  python examples/consolidation_day.py
"""

from repro import NoCConfig, Network, TrafficGenerator, get_pattern
from repro.gating import random_epochs

PHASES = [0.1, 0.4, 0.7, 0.4, 0.1]      # gated fraction per phase
PHASE_LEN = 4_000
BOUNDARIES = [PHASE_LEN * (i + 1) for i in range(len(PHASES) - 1)]
TOTAL = PHASE_LEN * len(PHASES)


def simulate(mechanism: str) -> dict:
    cfg = NoCConfig(mechanism=mechanism)
    net = Network(cfg, keep_samples=True)
    net.set_gating(random_epochs(cfg.num_routers, PHASES, BOUNDARIES,
                                 seed=21))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.03, seed=21)
    gen.run(TOTAL)
    for _ in range(3_000):                 # drain
        net.step()
    rep = net.accountant.report(net.cycle)
    worst_window = max(w.avg for w in
                       net.stats.latency_windows(PHASE_LEN // 8))
    return {
        "latency": net.stats.avg_latency,
        "worst_window": worst_window,
        "energy_uj": rep.total_j * 1e6,
        "static_uj": rep.static_j * 1e6,
        "gating_events": net.accountant.gating_events,
        "delivered": net.stats.packets_ejected,
        "offered": net.stats.packets_injected,
    }


def main() -> None:
    print(f"phases (gated fraction): {PHASES}, "
          f"{PHASE_LEN} cycles each\n")
    print(f"{'mechanism':>10} {'avg lat':>8} {'worst win':>10} "
          f"{'energy uJ':>10} {'static uJ':>10} {'transitions':>12}")
    rows = {}
    for mech in ("baseline", "rp", "gflov"):
        r = simulate(mech)
        rows[mech] = r
        assert r["delivered"] == r["offered"], "lost packets!"
        print(f"{mech:>10} {r['latency']:8.1f} {r['worst_window']:10.1f} "
              f"{r['energy_uj']:10.2f} {r['static_uj']:10.2f} "
              f"{r['gating_events']:12d}")
    print("\nRP saves energy but its reconfigurations spike the worst-case")
    print("window latency; gFLOV gets the bigger savings with a flat")
    print("latency profile because routers power-gate independently.")


if __name__ == "__main__":
    main()
