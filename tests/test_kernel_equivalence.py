"""Kernel equivalence: the activity-driven kernel must be bit-identical
to the dense reference kernel.

``Network`` ships two simulation kernels (``src/repro/noc/network.py``):
``dense`` visits every router and channel every cycle; ``active`` walks
timing wheels for channel arrivals and an active-router bitmask for the
evaluation phase.  Kernel choice is a pure performance knob — results
must match *bit for bit*, which these tests enforce by comparing entire
``ExperimentResult`` dataclasses (latency, breakdown, power/energy,
power-state residency, per-packet samples).

The suite also unit-tests the bookkeeping the active kernel leans on:
the active-set mask/flag mirror, the maintained VC-state counters, the
timing-wheel registration invariants, the gating change-point cursor,
and the handshake drain-candidate skip cache.
"""

import pytest

from repro.config import MECHANISMS
from repro.harness import run_spec
from repro.spec import ExperimentSpec, load_spec_file

EQ_KW = dict(rate=0.04, warmup=200, measure=800, seed=11)


#: the mid-run reconfigurations of the epoch-gating cases
EPOCHS = {"kind": "random_epochs", "fractions": [0.2, 0.7, 0.4],
          "boundaries": [400, 700], "seed": 5}


def run(mech, *, tracer=None, **kw):
    return run_spec(ExperimentSpec(mech, **kw), tracer=tracer)


def _pair(mech, **kw):
    """Run the same experiment under both kernels, samples retained."""
    dense = run(mech, kernel="dense", keep_samples=True, **kw)
    active = run(mech, kernel="active", keep_samples=True, **kw)
    return dense, active


# -- full-result equivalence matrix -----------------------------------------

@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("pattern", ("uniform", "tornado"))
@pytest.mark.parametrize("fraction", (0.0, 0.5))
def test_kernels_bit_identical(mechanism, pattern, fraction):
    dense, active = _pair(mechanism, pattern=pattern,
                          gated_fraction=fraction, **EQ_KW)
    assert dense == active, (
        f"{mechanism}/{pattern}/f={fraction}: kernels diverged")


@pytest.mark.parametrize("fraction", (0.2, 0.4, 0.6, 0.8))
def test_kernels_bit_identical_gflov_fraction_sweep(fraction):
    """Deeper gated-fraction sweep on the paper's main mechanism: higher
    fractions exercise fly-over relays, wakeup handshakes, and long
    stretches of routers absent from the active set."""
    dense, active = _pair("gflov", pattern="uniform",
                          gated_fraction=fraction, **EQ_KW)
    assert dense == active


@pytest.mark.parametrize("mechanism", ("gflov", "rp"))
def test_kernels_bit_identical_under_epoch_gating(mechanism):
    """Mid-run gated-set changes: exercises the change-point cursor, RP's
    network-wide reconfiguration stalls, and wakeup storms under both
    kernels."""
    dense, active = _pair(mechanism, pattern="uniform", gated_fraction=0.0,
                          schedule=EPOCHS, **EQ_KW)
    assert dense == active


def test_fig6_cell_example_spec_identical_on_both_kernels():
    """The checked-in acceptance cell, as CI's spec-smoke job runs it."""
    from dataclasses import replace
    from pathlib import Path

    specs = Path(__file__).resolve().parents[1] / "examples" / "specs"
    spec = load_spec_file(str(specs / "fig6_cell.toml"))
    assert run_spec(replace(spec, kernel="dense")) == \
        run_spec(replace(spec, kernel="active"))


def test_env_var_selects_kernel(monkeypatch):
    from repro.noc.network import default_kernel

    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert default_kernel() == "active"
    monkeypatch.setenv("REPRO_KERNEL", "dense")
    assert default_kernel() == "dense"
    monkeypatch.setenv("REPRO_KERNEL", "turbo")
    with pytest.raises(ValueError, match="REPRO_KERNEL"):
        default_kernel()


def test_explicit_kernel_validated():
    from repro.config import NoCConfig
    from repro.noc.network import Network

    with pytest.raises(ValueError, match="kernel"):
        Network(NoCConfig(mechanism="baseline"), kernel="turbo")


# -- differential event traces ------------------------------------------------

def _normalized_trace(events):
    """Canonical ordering for within-cycle comparison.

    Both kernels make the same state transitions each cycle but may visit
    routers in a different order (bitmask walk vs dense scan), so events
    inside one cycle can interleave differently while the simulation stays
    bit-identical.  Sorting within the stream by ``(cycle, kind, node,
    repr(data))`` removes that legal reordering and nothing else."""
    return sorted(events, key=lambda ev: (ev.cycle, ev.kind, ev.node,
                                          repr(ev.data)))


@pytest.mark.parametrize("mechanism,fraction",
                         [("baseline", 0.0), ("rp", 0.5),
                          ("rflov", 0.5), ("gflov", 0.5)])
def test_kernels_emit_identical_event_streams(mechanism, fraction):
    """Order-normalized differential trace: every structured event —
    flit hops, FLOV latches, handshake messages, PSR updates, power
    transitions — must agree between kernels, not just the aggregate
    ``ExperimentResult``.  This catches divergence that washes out in
    averages (e.g. a hop counted on the wrong cycle)."""
    from repro.obs import Tracer

    td = Tracer()
    ta = Tracer()
    dense = run(mechanism, kernel="dense", tracer=td,
                gated_fraction=fraction, **EQ_KW)
    active = run(mechanism, kernel="active", tracer=ta,
                 gated_fraction=fraction, **EQ_KW)
    assert dense == active
    ed, ea = _normalized_trace(td.events()), _normalized_trace(ta.events())
    assert td.dropped == ta.dropped == 0, "ring overflowed; enlarge capacity"
    assert len(ed) == len(ea), (
        f"{mechanism}/f={fraction}: dense recorded {len(ed)} events, "
        f"active {len(ea)}")
    for i, (d, a) in enumerate(zip(ed, ea)):
        assert d == a, (
            f"{mechanism}/f={fraction}: traces diverge at normalized "
            f"index {i}: dense={d} active={a}")
    assert ed, "soak produced no events; differential test is vacuous"


def test_kernels_emit_identical_event_streams_under_epoch_gating():
    """Same differential check across mid-run reconfigurations, where the
    active kernel's change-point cursor and wakeup storms diverge most
    readily from the dense scan."""
    from repro.obs import Tracer

    td, ta = Tracer(), Tracer()
    dense = run("gflov", kernel="dense", tracer=td, schedule=EPOCHS, **EQ_KW)
    active = run("gflov", kernel="active", tracer=ta, schedule=EPOCHS,
                 **EQ_KW)
    assert dense == active
    assert _normalized_trace(td.events()) == _normalized_trace(ta.events())


# -- active-set and counter bookkeeping --------------------------------------

def _recount_and_check(net):
    """Cross-check every maintained counter, flag and mask against a
    full recount (``derived_state_violations``: active mask vs flags,
    per-port flit / ROUTING counts, the ACTIVE-VC and port bitmasks
    recounted from ``vc.state``, NoRD's ring busy mask from its queues
    and its drain-candidate list from a scan over ``gated_cores``);
    returns the recounted in-fabric flit total."""
    from repro.noc.validation import derived_state_violations

    v = derived_state_violations(net)
    assert not v, f"derived state drifted at cycle {net.cycle}: {v[:5]}"
    return (sum(len(vc.buffer) for r in net.routers
                for vcs in r.ivc.values() for vc in vcs)
            + sum(len(ch) for r in net.routers
                  for ch in r.out_flit.values()))


@pytest.mark.parametrize("mechanism,fraction",
                         [("baseline", 0.0), ("gflov", 0.5), ("nord", 0.5)])
def test_active_set_bookkeeping_under_traffic(mechanism, fraction):
    """Step a live network and recount all maintained state every few
    cycles: active mask vs flags, VC-state counters, per-port flit
    counts, and the O(1) in-fabric flit counter vs the exhaustive scan."""
    from repro.config import NoCConfig
    from repro.gating.schedule import StaticGating
    from repro.noc.network import Network
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.patterns import get_pattern

    cfg = NoCConfig(mechanism=mechanism, width=4, height=4, seed=9)
    net = Network(cfg, kernel="active")
    net.set_gating(StaticGating(cfg.num_routers, fraction, seed=9))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.2, seed=9)
    for cycle in range(400):
        gen.tick()
        net.step()
        if cycle % 7 == 0:
            fabric = _recount_and_check(net)
            if mechanism != "nord":  # ring flits live outside the fabric
                assert net._flits == fabric, "in-fabric flit counter drifted"
            assert net.network_drained() == net.network_drained_slow()


@pytest.mark.parametrize("kernel", ("active", "dense"))
def test_nord_derived_state_tracks_schedule_changes(kernel):
    """NoRD's drain-candidate list and ring busy mask are rebuilt or
    patched at schedule changes, drain starts and ring hops: recount
    them every cycle across re-gating epochs, on both kernels."""
    from repro.config import NoCConfig
    from repro.gating.schedule import random_epochs
    from repro.noc.network import Network
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.patterns import get_pattern

    cfg = NoCConfig(mechanism="nord", width=4, height=4, seed=5,
                    idle_threshold=16)
    net = Network(cfg, kernel=kernel)
    net.set_gating(random_epochs(cfg.num_routers, (0.3, 0.7, 0.2, 0.6),
                                 (90, 200, 330), seed=5))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.15, seed=5)
    seen_candidates = seen_ring = False
    for _ in range(450):
        gen.tick()
        net.step()
        _recount_and_check(net)
        seen_candidates |= bool(net.mech._drain_candidates)
        seen_ring |= bool(net.mech.ring.busy)
    assert seen_candidates and seen_ring, "run never exercised the state"
    assert net.mech.diversions, "no packet was diverted onto the ring"


def test_idle_network_active_set_collapses():
    """With no traffic, every router must fall out of the active scan."""
    from repro.config import NoCConfig
    from repro.noc.network import Network

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    net.step(3)  # one pass to notice there is no work
    assert net._active_mask == 0
    assert all(not r._active for r in net.routers)
    # new work re-activates exactly the injecting router
    net.inject_packet(5, 42)
    assert net._active_mask >> 5 & 1
    net.step(1)
    assert net.routers[5]._active


# -- timing-wheel registration invariants ------------------------------------

def _flit_for(net, src, dest):
    """A one-flit packet marked undelivered: delivery into a buffer sets
    ``buffered_at`` to the delivery cycle (the router may eject or
    forward the flit right after, so buffer occupancy can't be used)."""
    from repro.noc.types import make_packet
    flit = make_packet(999, src, dest, 1, time=net.cycle)[0]
    flit.buffered_at = -1
    return flit


def _delivered(flits):
    return [f.buffered_at for f in flits if f.buffered_at >= 0]


def _wheel_entries(net, ch):
    return sorted(cycle for cycle, bucket in net._flit_wheel.items()
                  for c in bucket if c is ch)


def test_dense_kernel_keeps_channels_unbound():
    from repro.config import NoCConfig
    from repro.noc.network import Network

    net = Network(NoCConfig(mechanism="baseline"), kernel="dense")
    net.inject_packet(0, 7)
    net.step(30)
    assert net._flit_wheel == {} and net._credit_wheel == {}
    for r in net.routers:
        for ch in r.out_flit.values():
            assert ch.wheel is None


def test_wheel_files_every_in_flight_item():
    """Each flit on a wire has its own wheel entry at its arrival and is
    delivered on that cycle, whatever else the channel holds."""
    from repro.config import NoCConfig
    from repro.noc.network import Network
    from repro.noc.types import Direction
    from repro.noc.validation import derived_state_violations

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    net.step(3)  # quiesce
    ch = net.routers[0].out_flit[Direction.EAST]
    now = net.cycle
    flits = [_flit_for(net, 0, 1), _flit_for(net, 0, 1)]
    ch.send_at(flits[0], now + 1)
    ch.send_at(flits[1], now + 3)
    assert _wheel_entries(net, ch) == [now + 1, now + 3]
    assert not derived_state_violations(net)
    net.step(2)  # cycle now+1 delivers the first flit only
    assert _delivered(flits) == [now + 1]
    assert len(ch) == 1 and _wheel_entries(net, ch) == [now + 3]
    net.step(2)
    assert _delivered(flits) == [now + 1, now + 3]
    assert _wheel_entries(net, ch) == []


def test_wheel_tolerates_clear_and_manual_receive():
    """Stale bucket entries left by clear()/receive() are dropped, and an
    item sent afterwards is delivered once, on time."""
    from repro.config import NoCConfig
    from repro.noc.network import Network
    from repro.noc.types import Direction

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    net.step(3)
    ch = net.routers[0].out_flit[Direction.EAST]
    flits = [_flit_for(net, 0, 1) for _ in range(3)]
    ch.send_at(flits[0], net.cycle + 2)
    ch.clear()                      # power reconfig drops the payload...
    net.step(4)                     # ...stale entry is dropped
    assert _wheel_entries(net, ch) == [] and _delivered(flits) == []
    ch.send_at(flits[1], net.cycle + 2)
    ch._q.popleft()                 # out-of-band drain before the bucket
    assert not ch
    net.step(4)
    assert _wheel_entries(net, ch) == [] and _delivered(flits) == []
    due = net.cycle + 1
    ch.send_at(flits[2], due)
    net.step(2)
    assert _delivered(flits) == [due]


# -- change-point cursor ------------------------------------------------------

def test_change_point_cursor_fires_each_point_once():
    from repro.config import NoCConfig
    from repro.gating.schedule import EpochGating
    from repro.noc.network import Network

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    calls: list[int] = []
    orig = net.mech.on_schedule_change

    def record(now, gated):
        calls.append(now)
        return orig(now, gated)

    net.mech.on_schedule_change = record
    net.set_gating(EpochGating([(0, ()), (10, (3,)), (20, ())]))
    assert calls == [0]         # install announces the current set
    net.step(35)
    assert calls == [0, 10, 20]
    assert net._cp_idx == 2


def test_change_point_cursor_skips_past_points():
    """Installing a schedule mid-run must not re-fire stale points."""
    from repro.config import NoCConfig
    from repro.gating.schedule import EpochGating
    from repro.noc.network import Network

    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    net.step(15)
    calls: list[int] = []
    orig = net.mech.on_schedule_change

    def record(now, gated):
        calls.append(now)
        return orig(now, gated)

    net.mech.on_schedule_change = record
    net.set_gating(EpochGating([(0, ()), (10, (3,)), (20, ())]))
    assert net._cp_idx == 1     # point 10 is already behind us
    net.step(20)
    assert calls == [15, 20]    # install-time announce + the live point


# -- handshake drain-candidate skip cache ------------------------------------

def _gflov_hsc():
    from repro.config import NoCConfig
    from repro.gating.schedule import StaticGating
    from repro.noc.network import Network

    cfg = NoCConfig(mechanism="gflov", seed=4)
    net = Network(cfg, kernel="active")
    net.set_gating(StaticGating(cfg.num_routers, 0.4, seed=4))
    return net, net.mech.hsc


def test_skip_until_bounds_are_conservative():
    """`_skip_until` may only return cycles at which the drain predicate
    could newly pass — never earlier re-checks missed, never an infinite
    skip while a finite trigger is pending."""
    net, hsc = _gflov_hsc()
    idle = net.cfg.idle_threshold
    node = next(n for n in sorted(hsc._drain_candidates)
                if n not in hsc.aon_nodes and n not in hsc.protected)
    r = net.routers[node]

    # ineligible nodes are skipped forever (epoch-guarded elsewhere)
    aon = next(iter(hsc.aon_nodes))
    assert hsc._skip_until(net.routers[aon], 0) == hsc._FOREVER

    # the idle-threshold clock dominates a fresh router
    r.last_local_activity = 0
    assert hsc._skip_until(r, 0) == idle

    # an explicit drain backoff extends the bound
    hsc._drain_backoff[node] = idle + 50
    assert hsc._skip_until(r, 0) == idle + 50
    del hsc._drain_backoff[node]

    # pending NI work forces a next-cycle re-check
    net.inject_packet(node, (node + 1) % net.cfg.num_routers)
    r.last_local_activity = -10**9
    assert hsc._skip_until(r, 100) == 101
    r.ni.drop_queued_to(frozenset(range(net.cfg.num_routers)))

    # nothing finite pending: the remaining blocker is PSR state, which
    # bumps the router's epoch on change — skip until then
    r.ni.pending_flits and pytest.fail("NI should be empty here")
    assert hsc._skip_until(r, 10**6) == hsc._FOREVER


def test_skip_cache_does_not_prevent_drain():
    """End to end: with the cache active, idle gated routers still reach
    SLEEP within a few idle-threshold periods."""
    from repro.core.power_fsm import PowerState

    net, hsc = _gflov_hsc()
    net.step(6 * net.cfg.idle_threshold + 60)
    gated = net.gating.gated_at(0) - hsc.aon_nodes - hsc.protected
    asleep = {n for n in gated
              if net.routers[n].state is PowerState.SLEEP}
    assert asleep, "no gated router ever drained with the skip cache on"


# -- batched replica execution ------------------------------------------------
#
# One ReplicaBatch invocation steps B independent replicas in lockstep
# through shared timing wheels (``src/repro/noc/batched.py``); every
# replica must produce an ExperimentResult digest-identical to a solo
# ``active``-kernel run of the same spec (and therefore to ``dense``,
# by the matrix above).

_BATCH_OVERRIDES = {"width": 4, "height": 4}  # small mesh keeps tier-1 fast
_BATCH_FRACTIONS = (0.0, 0.4, 0.8)
_BATCH_SEEDS = (3, 7, 11)


def _batch_specs(mechanism, pattern):
    """A 9-replica batch: 3 fractions x 3 seeds with mixed rates."""
    from repro.spec import ExperimentSpec

    specs = []
    for fi, fraction in enumerate(_BATCH_FRACTIONS):
        for si, seed in enumerate(_BATCH_SEEDS):
            specs.append(ExperimentSpec(
                mechanism=mechanism, pattern=pattern,
                rate=0.02 + 0.02 * si,  # mixed-rate batch
                gated_fraction=fraction, warmup=150, measure=500,
                seed=seed, overrides=dict(_BATCH_OVERRIDES)))
    return specs


def _digest(result):
    from repro.harness.cache import result_to_dict, stable_digest
    return stable_digest(result_to_dict(result))


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("pattern", ("uniform", "tornado"))
def test_batched_replicas_digest_equal_active(mechanism, pattern):
    import dataclasses

    from repro.harness import run_spec
    from repro.noc.batched import run_spec_batch

    specs = _batch_specs(mechanism, pattern)
    batched = run_spec_batch(specs)
    for spec, br in zip(specs, batched):
        solo = run_spec(dataclasses.replace(spec, kernel="active"))
        assert _digest(br) == _digest(solo), (
            f"{mechanism}/{pattern} seed={spec.seed} "
            f"f={spec.gated_fraction} rate={spec.rate}: batched replica "
            f"diverged from solo active run")


def test_batched_kernel_registered_and_solo_equivalent():
    """``kernel='batched'`` on a solo Network is the active step: specs
    and CLI flags accept it everywhere a kernel name is accepted."""
    from repro.registry import KERNELS

    assert "batched" in KERNELS
    a = run("gflov", kernel="active", gated_fraction=0.4, **EQ_KW)
    b = run("gflov", kernel="batched", gated_fraction=0.4, **EQ_KW)
    assert a == b


def test_batched_rejects_dense_and_workload():
    from repro.config import NoCConfig
    from repro.noc.batched import ReplicaBatch, run_spec_batch
    from repro.noc.network import Network
    from repro.spec import ExperimentSpec, SpecError

    with pytest.raises(SpecError, match="dense"):
        ReplicaBatch().add(Network(NoCConfig(mechanism="baseline"),
                                   kernel="dense"))
    batch = ReplicaBatch()
    net = Network(NoCConfig(mechanism="baseline"), kernel="active")
    net.step(1)
    with pytest.raises(SpecError, match="cycle 0"):
        batch.add(net)
    with pytest.raises(SpecError, match="workload"):
        run_spec_batch([ExperimentSpec(mechanism="baseline",
                                       workload="blackscholes")])


# -- mixed horizons: early-retired replicas must not perturb siblings ---------

def test_batched_mixed_horizons_digest_equal_active():
    """Replicas with very different warmup/measure/drain settings in one
    batch: each retires at its own cycle and still matches its solo run."""
    import dataclasses

    from repro.harness import run_spec
    from repro.noc.batched import run_spec_batch
    from repro.spec import ExperimentSpec

    specs = [
        ExperimentSpec(mechanism="gflov", rate=0.05, gated_fraction=0.5,
                       warmup=50, measure=100, seed=2,
                       overrides=dict(_BATCH_OVERRIDES)),
        ExperimentSpec(mechanism="gflov", rate=0.03, gated_fraction=0.3,
                       warmup=200, measure=900, seed=3,
                       overrides=dict(_BATCH_OVERRIDES)),
        ExperimentSpec(mechanism="baseline", rate=0.08, gated_fraction=0.0,
                       warmup=100, measure=250, seed=4, drain=False,
                       overrides=dict(_BATCH_OVERRIDES)),
        ExperimentSpec(mechanism="rflov", rate=0.02, gated_fraction=0.6,
                       warmup=60, measure=440, seed=5,
                       overrides=dict(_BATCH_OVERRIDES)),
    ]
    batched = run_spec_batch(specs)
    for spec, br in zip(specs, batched):
        solo = run_spec(dataclasses.replace(spec, kernel="active"))
        assert _digest(br) == _digest(solo), (
            f"mixed-horizon batch: {spec.mechanism} seed={spec.seed} "
            f"diverged from solo run")


def test_retired_replica_contributes_no_wheel_work():
    """Retiring a replica mid-flight must drop its pending shared-wheel
    registrations (never deliver them) and freeze its network, while a
    sibling replica keeps stepping undisturbed."""
    from repro.config import NoCConfig
    from repro.noc.batched import ReplicaBatch
    from repro.noc.network import Network

    def fresh(seed):
        return Network(NoCConfig(mechanism="baseline", width=4, height=4,
                                 seed=seed), kernel="batched")

    batch = ReplicaBatch()
    a = fresh(1)
    b = fresh(1)
    ia = batch.add(a)
    batch.add(b)
    # identical traffic into both replicas; then retire one mid-flight
    for net in (a, b):
        net.inject_packet(0, 15)
        net.inject_packet(5, 10)
    # step until replica a has a flit on a wire (a pending wheel
    # registration for the retire to race against)
    in_flight: list = []
    for _ in range(30):
        batch.step_cycle([False, False])
        in_flight = [ch for r in a.routers
                     for ch in r.out_flit.values() if ch]
        if in_flight:
            break
    assert in_flight, "retire must race at least one pending delivery"
    assert a._flits and b._flits, "packets should still be in flight"
    frozen_cycle = a.cycle
    batch.retire(ia)
    for _ in range(60):
        batch.step_cycle([False, False])
    # the retired replica froze: no deliveries, cycle pinned, wheel
    # entries dropped (popped with their buckets, payload undelivered)
    assert a.cycle == frozen_cycle
    assert a._flits, "retired replica's flits must never be delivered"
    assert all(ch for ch in in_flight)
    assert not any(ch.owner == ia for wheel in (batch._flit_wheel,
                                                batch._credit_wheel)
                   for bucket in wheel.values() for ch in bucket)
    # the sibling drained normally, exactly like a solo run
    assert b.network_drained() and b.stats.packets_ejected == 2
    solo = fresh(1)
    solo.inject_packet(0, 15)
    solo.inject_packet(5, 10)
    solo.step(62)
    assert b.stats.packets_ejected == solo.stats.packets_ejected
    assert b.stats.latency_sum == solo.stats.latency_sum


def test_shared_wheels_partition_by_owner():
    """Channel ownership tags partition the merged wheels: every wired
    channel of replica i carries owner i on both wheel kinds."""
    from repro.config import NoCConfig
    from repro.noc.batched import ReplicaBatch
    from repro.noc.network import Network

    batch = ReplicaBatch()
    nets = [Network(NoCConfig(mechanism="gflov", width=4, height=4, seed=s),
                    kernel="batched") for s in (1, 2, 3)]
    for net in nets:
        batch.add(net)
    for i, net in enumerate(nets):
        assert net._flit_wheel is batch._flit_wheel
        assert net._credit_wheel is batch._credit_wheel
        for r in net.routers:
            for ch in r.out_flit.values():
                assert ch.owner == i and ch.wheel is batch._flit_wheel
            for ch in r.out_credit.values():
                assert ch.owner == i and ch.wheel is batch._credit_wheel
