"""Randomized fault soaks (``repro.faults.soak``).

Tier-1 keeps a bounded smoke set — every mechanism sees every fault
mechanism class at least once, fanned out through ``PoolExecutor.map`` —
and checks the triage path on a deliberately wedged network.  The long
randomized campaigns are marked ``soak`` (tier-2).
"""

import dataclasses

import pytest

from repro.config import MECHANISMS, NoCConfig
from repro.faults import (FaultInjector, FaultPlan, FaultSoakReport,
                          FaultSoakSpec, diagnose_liveness, run_fault_soak)
from repro.harness.parallel import PoolExecutor
from repro.noc.network import Network

#: the tier-1 matrix: 4 mechanisms x all fault classes that apply to
#: them (rp/nord have no handshake plane; they still see link outages).
SMOKE_PLAN = FaultPlan(seed=0, hs_drop=0.15, hs_dup=0.08, hs_delay=0.15,
                       link_kill=0.002, power_reset=0.003)
SMOKE_SPECS = [
    FaultSoakSpec(mechanism="gflov", seed=101, burst_cycles=2000,
                  plan=dataclasses.replace(SMOKE_PLAN, seed=101)),
    FaultSoakSpec(mechanism="rflov", seed=102, burst_cycles=2000,
                  plan=dataclasses.replace(SMOKE_PLAN, seed=102)),
    FaultSoakSpec(mechanism="rp", seed=103, burst_cycles=2000,
                  plan=dataclasses.replace(SMOKE_PLAN, seed=103)),
    FaultSoakSpec(mechanism="nord", seed=104, burst_cycles=2000,
                  plan=dataclasses.replace(SMOKE_PLAN, seed=104)),
]


def test_smoke_soaks_recover_across_mechanisms():
    reports = PoolExecutor().map(run_fault_soak, SMOKE_SPECS)
    assert len(reports) == len(SMOKE_SPECS)
    for rep in reports:
        assert isinstance(rep, FaultSoakReport)
        detail = (f"{rep.spec.mechanism} seed={rep.spec.seed}: "
                  f"violations={rep.violations} diagnosis={rep.diagnosis}")
        assert rep.ok, detail
        assert rep.packets_injected > 0
        # conservation: every packet is delivered or (RP reconfiguration
        # only) legitimately dropped with the migrated threads
        assert rep.packets_ejected + rep.packets_dropped == \
            rep.packets_injected
        assert sum(rep.faults.values()) > 0, (
            f"{rep.spec.mechanism}: soak injected no faults; vacuous")
    # the handshake mechanisms must have seen handshake-plane faults,
    # not just link outages
    for rep in reports[:2]:
        assert any(k.startswith("hs_") for k in rep.faults), rep.faults


def test_soak_with_epoch_churn_and_power_resets():
    """Gating epochs force wakeups and re-drains while faults are live —
    the adversarial schedule from the conformance suite, plus faults."""
    spec = FaultSoakSpec(mechanism="gflov", seed=202, burst_cycles=3000,
                         epochs=3,
                         plan=FaultPlan(seed=202, hs_drop=0.2,
                                        hs_delay=0.2, power_reset=0.005))
    rep = run_fault_soak(spec)
    assert rep.ok, (rep.violations, rep.diagnosis)


def test_soak_replays_identically_from_its_spec():
    """A failing seed printed by `repro verify soak` must reproduce:
    the spec alone determines the entire run."""
    spec = SMOKE_SPECS[0]
    a, b = run_fault_soak(spec), run_fault_soak(spec)
    assert a == b


def test_diagnosis_names_the_stuck_entity():
    """A network that cannot drain (link killed forever, injector never
    healed) must produce a pointed liveness report, not a bare flag."""
    cfg = NoCConfig(mechanism="baseline", width=4, height=4, seed=0)
    net = Network(cfg)
    inj = FaultInjector()
    net.attach_faults(inj)
    inj.kill_link(0, 1, 0, duration=10**9)
    net.inject_packet(0, 1, size=4)
    net.step(500)
    assert net.stats.packets_ejected == 0
    diag = diagnose_liveness(net)
    assert diag, "wedged network produced an empty diagnosis"
    assert any("flits" in line for line in diag)
    assert any("links still dead" in line for line in diag)


def test_report_ok_requires_quiescence_and_clean_invariants():
    spec = FaultSoakSpec()
    good = FaultSoakReport(spec=spec, quiescent=True, cycles=1,
                           packets_injected=0, packets_ejected=0,
                           packets_dropped=0, faults={}, violations=(),
                           diagnosis=())
    assert good.ok
    assert not dataclasses.replace(good, quiescent=False).ok
    assert not dataclasses.replace(
        good, violations=(("credit", 0, 0),)).ok


@pytest.mark.parametrize("mech", MECHANISMS)
def test_kernels_agree_under_live_faults(mech):
    """``dense`` and ``active`` produce the same soak report while every
    fault class fires, gating epochs churn and links go down — outages
    stall in-flight items and re-file their timing-wheel entries, a path
    only the ``active`` kernel takes."""
    spec = FaultSoakSpec(
        mechanism=mech, seed=303, burst_cycles=2000, epochs=2, rate=0.15,
        plan=FaultPlan(seed=303, hs_drop=0.2, hs_dup=0.1, hs_delay=0.2,
                       link_kill=0.02, link_kill_duration=40,
                       power_reset=0.01))
    active = run_fault_soak(spec)
    dense = run_fault_soak(dataclasses.replace(spec, kernel="dense"))
    assert active.ok, (active.violations, active.diagnosis)
    assert active.faults.get("link_kill"), "no outage: the check is vacuous"
    assert dataclasses.replace(dense, spec=spec) == active


# -- tier-2: longer randomized campaigns ---------------------------------------

@pytest.mark.soak
@pytest.mark.parametrize("mech", ("gflov", "rflov", "rp", "nord"))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_extended_soak_campaign(mech, seed):
    spec = FaultSoakSpec(
        mechanism=mech, seed=1000 + seed, burst_cycles=8000, epochs=4,
        rate=0.08,
        plan=FaultPlan(seed=1000 + seed, hs_drop=0.25, hs_dup=0.1,
                       hs_delay=0.25, hs_delay_max=16, link_kill=0.004,
                       link_kill_duration=128, power_reset=0.006))
    rep = run_fault_soak(spec)
    assert rep.ok, (f"{mech} seed={spec.seed}: violations="
                    f"{rep.violations} diagnosis={rep.diagnosis}")


# -- batched soak execution ---------------------------------------------------

def test_batched_soak_matches_solo_reports():
    """One ReplicaBatch invocation fanning a soak campaign must produce
    reports equal to solo ``run_fault_soak`` runs, including mixed
    burst lengths (replicas heal and retire at different cycles)."""
    from repro.faults import run_fault_soak_batch

    specs = [
        dataclasses.replace(SMOKE_SPECS[0], burst_cycles=700),
        dataclasses.replace(SMOKE_SPECS[1], burst_cycles=900, epochs=2),
        dataclasses.replace(SMOKE_SPECS[2], burst_cycles=500),
    ]
    solo = [run_fault_soak(s) for s in specs]
    batched = run_fault_soak_batch(specs)
    assert batched == solo


def test_batched_soak_rejects_dense_and_shared_injectors():
    from repro.faults import run_fault_soak_batch
    from repro.spec import SpecError

    with pytest.raises(SpecError, match="dense"):
        run_fault_soak_batch([dataclasses.replace(SMOKE_SPECS[0],
                                                  kernel="dense")])
    # one injector cannot serve two replicas: bind() refuses re-binding
    injector = FaultInjector(SMOKE_PLAN)
    net_a = Network(NoCConfig(mechanism="gflov", seed=1))
    net_b = Network(NoCConfig(mechanism="gflov", seed=2))
    net_a.attach_faults(injector)
    with pytest.raises(ValueError, match="already bound"):
        net_b.attach_faults(injector)
