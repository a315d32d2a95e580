"""Invariant soak tests: randomized short simulations across every
mechanism and traffic pattern, with the global invariant checkers from
``repro.noc.validation`` asserted at quiescence points every N cycles.

The distributed rFLOV/gFLOV handshake is a concurrent protocol; unit
tests of single transitions do not cover the interleavings a random
workload produces.  Each soak run alternates bursts of Bernoulli
injection with drain phases; whenever the network reaches quiescence we
check credit conservation, wormhole integrity and (for the FLOV
mechanisms) logical-pointer coherence.  Wormhole integrity and the
derived-state recount (counters, flags and bitmasks the hot paths keep
incrementally) are also checked mid-burst — they must hold at *every*
cycle, not just quiescent ones.
"""

import random

import pytest

from repro.config import NoCConfig
from repro.gating.schedule import StaticGating
from repro.noc.network import Network
from repro.noc.validation import (credit_conservation_violations,
                                  derived_state_violations,
                                  pointer_coherence_violations, quiescent,
                                  wormhole_violations)
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import get_pattern

from repro.harness import FIGURE_MECHANISMS as MECHANISMS

PATTERNS = ("uniform", "tornado")

#: injection cycles between quiescence checks
BURST = 240
#: number of burst/drain rounds per soak run
ROUNDS = 3
#: cap on drain cycles while waiting for quiescence
DRAIN_CAP = 6_000


def _drain_to_quiescence(net: Network) -> bool:
    """Step without injection until quiescent (or give up at the cap)."""
    for _ in range(DRAIN_CAP):
        if quiescent(net):
            return True
        net.step()
    return quiescent(net)


def _soak(mechanism: str, pattern: str, gated_fraction: float,
          seed: int, *, width: int = 6, height: int = 6,
          rate: float = 0.06) -> int:
    """Run one soak; returns the number of quiescence checks performed."""
    cfg = NoCConfig(mechanism=mechanism, width=width, height=height,
                    seed=seed)
    net = Network(cfg)
    net.set_gating(StaticGating(cfg.num_routers, gated_fraction, seed=seed))
    gen = TrafficGenerator(net, get_pattern(pattern, cfg), rate, seed=seed)

    checks = 0
    for rnd in range(ROUNDS):
        gen.run(BURST)
        # wormhole integrity must hold at arbitrary (non-quiescent) cycles
        v = wormhole_violations(net)
        assert not v, (f"{mechanism}/{pattern}/g={gated_fraction} "
                       f"mid-burst wormhole violation: {v[:5]}")
        v = derived_state_violations(net)
        assert not v, (f"{mechanism}/{pattern}/g={gated_fraction} "
                       f"mid-burst derived state drifted: {v[:5]}")
        drained = _drain_to_quiescence(net)
        assert drained, (f"{mechanism}/{pattern}/g={gated_fraction} "
                         f"did not quiesce within {DRAIN_CAP} cycles "
                         f"(round {rnd})")
        v = credit_conservation_violations(net)
        assert not v, (f"{mechanism}/{pattern}/g={gated_fraction} "
                       f"credit conservation violated at quiescence: {v[:5]}")
        v = wormhole_violations(net)
        assert not v, (f"{mechanism}/{pattern}/g={gated_fraction} "
                       f"wormhole violated at quiescence: {v[:5]}")
        v = derived_state_violations(net)
        assert not v, (f"{mechanism}/{pattern}/g={gated_fraction} "
                       f"derived state drifted at quiescence: {v[:5]}")
        if mechanism in ("rflov", "gflov"):
            v = pointer_coherence_violations(net)
            assert not v, (f"{mechanism}/{pattern}/g={gated_fraction} "
                           f"pointer coherence violated at quiescence: "
                           f"{v[:5]}")
        checks += 1
    assert net.stats.packets_ejected > 0, "soak produced no traffic"
    return checks


@pytest.mark.slow
@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_soak_invariants(mechanism, pattern):
    """Randomized gated fractions per (mechanism, pattern) cell."""
    # stable per-cell seed (zlib.crc32 is not hash-randomized)
    import zlib
    rng = random.Random(zlib.crc32(f"{mechanism}/{pattern}".encode()))
    # one moderate and one aggressive gating level, randomized per cell
    fractions = (round(rng.uniform(0.1, 0.3), 2),
                 round(rng.uniform(0.4, 0.6), 2))
    for frac in fractions:
        seed = rng.randrange(1, 10_000)
        checks = _soak(mechanism, pattern, frac, seed)
        assert checks == ROUNDS


@pytest.mark.slow
def test_soak_gating_churn_gflov():
    """Epoch-changing gated sets stress the handshake the hardest."""
    from repro.gating.schedule import random_epochs

    cfg = NoCConfig(mechanism="gflov", width=6, height=6, seed=23)
    net = Network(cfg)
    sched = random_epochs(cfg.num_routers, [0.3, 0.6, 0.2, 0.5],
                          [300, 600, 900], seed=23)
    net.set_gating(sched)
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.05, seed=23)
    for _ in range(4):
        gen.run(300)
        assert not wormhole_violations(net)
        assert not derived_state_violations(net)
    assert _drain_to_quiescence(net)
    assert not credit_conservation_violations(net)
    assert not wormhole_violations(net)
    assert not pointer_coherence_violations(net)


@pytest.mark.slow
def test_soak_small_mesh_high_rate():
    """4x4 mesh near saturation: contention-heavy interleavings."""
    for mech in ("rflov", "gflov"):
        _soak(mech, "uniform", 0.25, seed=77, width=4, height=4, rate=0.2)
