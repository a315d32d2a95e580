"""Checkpoint / restore: the golden resume contract.

The anchor property, for every mechanism and kernel: *run-to-horizon*
and *checkpoint-at-C + restore + run-remainder* produce bit-identical
results (``stable_digest`` equality over the full
:class:`ExperimentResult`).  On top of that:

* snapshots survive a JSON round-trip (they are what lands on disk);
* resuming may switch kernels (checkpoints are keyed by the
  kernel-independent cache digest);
* a batch checkpoint restores every replica — including ones that had
  already retired — and the whole batch stays digest-identical;
* stale schemas and foreign specs are rejected, torn files downgrade
  to a fresh run instead of crashing;
* ``CheckpointInterrupt`` fires only after a complete snapshot is on
  disk (the service's preemption path).
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atomicio import append_jsonl, atomic_write_json, read_json_checked, \
    read_jsonl
from repro.config import MECHANISMS, NoCConfig
from repro.faults.injector import FaultInjector, FaultPlan
from repro.gating.schedule import StaticGating
from repro.harness import run_spec
from repro.harness.cache import result_to_dict, stable_digest
from repro.harness.checkpoint import (CheckpointInterrupt,
                                      batch_checkpoint_path, checkpoint_path,
                                      load_checkpoint, write_checkpoint)
from repro.noc.batched import run_spec_batch
from repro.noc.network import Network
from repro.noc.snapshot import SNAPSHOT_SCHEMA_VERSION, SnapshotError
from repro.noc.validation import derived_state_violations
from repro.spec import ExperimentSpec
from repro.traffic import TrafficGenerator, get_pattern

#: sub-second cells: 4x4 mesh, short horizons
FAST = dict(pattern="uniform", rate=0.05, warmup=100, measure=400,
            seed=11, overrides={"width": 4, "height": 4})


def spec_for(mechanism: str, **kw) -> ExperimentSpec:
    return ExperimentSpec(mechanism=mechanism, **dict(FAST, **kw))


def digest(result) -> str:
    return stable_digest(result_to_dict(result))


class InterruptAfter:
    """Zero-arg interrupt hook that fires on the n-th checkpoint."""

    def __init__(self, n: int = 1) -> None:
        self.n = n
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.calls >= self.n


def interrupted_then_resumed(spec, tmp_path, *, every: int,
                             after: int = 1, resume_kernel=None) -> str:
    """Checkpoint-interrupt a run, resume it, return the final digest."""
    with pytest.raises(CheckpointInterrupt) as exc:
        run_spec(spec, checkpoint_every=every, checkpoint_dir=tmp_path,
                 interrupt=InterruptAfter(after))
    path = checkpoint_path(tmp_path, spec)
    assert str(path) == exc.value.path
    assert path.is_file(), "interrupt must leave a resumable snapshot"
    if resume_kernel is not None:
        spec = ExperimentSpec(**dict(spec.to_dict(), kernel=resume_kernel))
    r = run_spec(spec, checkpoint_every=every, checkpoint_dir=tmp_path,
                 resume_from=path)
    assert not path.exists(), "completed runs consume their checkpoint"
    return digest(r)


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("kernel", ["active", "batched"])
def test_resume_digest_equality_all_mechanisms(mechanism, kernel, tmp_path):
    spec = spec_for(mechanism, gated_fraction=0.4, kernel=kernel)
    golden = digest(run_spec(spec))
    assert interrupted_then_resumed(spec, tmp_path, every=100) == golden


@pytest.mark.parametrize("gated", [0.0, 0.6])
@pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
def test_resume_digest_equality_at_any_cut(gated, fraction, tmp_path):
    """Cut at ~25/50/75% of the horizon: the digest never moves."""
    spec = spec_for("gflov", gated_fraction=gated)
    golden = digest(run_spec(spec))
    horizon = spec.resolved().warmup + spec.resolved().measure
    every = 50
    after = max(1, int(horizon * fraction) // every)
    assert interrupted_then_resumed(spec, tmp_path, every=every,
                                    after=after) == golden


def test_resume_may_switch_kernels(tmp_path):
    """Checkpointed under ``active``, resumed under ``batched`` — the
    file is found (kernel-free digest) and the digest still matches."""
    spec = spec_for("rflov", gated_fraction=0.5, kernel="active")
    golden = digest(run_spec(spec))
    assert interrupted_then_resumed(spec, tmp_path, every=120,
                                    resume_kernel="batched") == golden


def test_batch_resume_with_retired_replicas(tmp_path):
    """A mixed-horizon batch checkpoints after some replicas retired;
    the resumed batch finishes digest-identical to solo runs."""
    specs = [spec_for("rflov", gated_fraction=0.2, measure=150),
             spec_for("gflov", gated_fraction=0.6, seed=12),
             spec_for("baseline", measure=200, seed=13),
             spec_for("nord", gated_fraction=0.4, seed=14)]
    golden = [digest(run_spec(s)) for s in specs]

    with pytest.raises(CheckpointInterrupt):
        run_spec_batch(specs, checkpoint_every=120, checkpoint_dir=tmp_path,
                       interrupt=InterruptAfter(3))
    path = batch_checkpoint_path(tmp_path, [s.resolved() for s in specs])
    assert path.is_file()
    payload = load_checkpoint(path, kind="run_spec_batch")
    assert any(n is None for n in payload["batch"]["nets"]), \
        "short-horizon replicas should have retired before the cut"
    results = run_spec_batch(specs, checkpoint_every=120,
                             checkpoint_dir=tmp_path, resume_from=path)
    assert [digest(r) for r in results] == golden
    assert not path.exists()


def test_batch_checkpoint_rejects_foreign_specs(tmp_path):
    specs = [spec_for("rflov"), spec_for("gflov", seed=12)]
    with pytest.raises(CheckpointInterrupt):
        run_spec_batch(specs, checkpoint_every=100, checkpoint_dir=tmp_path,
                       interrupt=InterruptAfter(1))
    path = batch_checkpoint_path(tmp_path, [s.resolved() for s in specs])
    other = [spec_for("rflov"), spec_for("gflov", seed=99)]
    with pytest.raises(SnapshotError):
        run_spec_batch(other, resume_from=load_checkpoint(path))


def test_resume_rejects_checkpoint_for_different_spec(tmp_path):
    spec = spec_for("rflov")
    with pytest.raises(CheckpointInterrupt):
        run_spec(spec, checkpoint_every=100, checkpoint_dir=tmp_path,
                 interrupt=InterruptAfter(1))
    payload = load_checkpoint(checkpoint_path(tmp_path, spec))
    with pytest.raises(SnapshotError):
        run_spec(spec_for("rflov", seed=99), resume_from=payload)


def test_stale_schema_is_discarded_with_warning(tmp_path):
    path = tmp_path / "ckpt.json"
    write_checkpoint(path, {"schema": SNAPSHOT_SCHEMA_VERSION + 1,
                            "kind": "run_spec"})
    with pytest.warns(RuntimeWarning, match="discarding"):
        assert load_checkpoint(path) is None
    assert not path.exists(), "stale checkpoints are unlinked"


def test_torn_checkpoint_downgrades_to_fresh_run(tmp_path):
    spec = spec_for("gflov", gated_fraction=0.4)
    golden = digest(run_spec(spec))
    path = checkpoint_path(tmp_path, spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('{"schema": 1, "kind": "run_spec", "trunca')
    with pytest.warns(RuntimeWarning, match="discarding"):
        r = run_spec(spec, resume_from=path)
    assert digest(r) == golden


def test_interrupt_fires_only_after_persist(tmp_path):
    """When the hook says stop, the snapshot the exception points at is
    already complete on disk and resumes the run."""
    spec = spec_for("rp", gated_fraction=0.4)
    golden = digest(run_spec(spec))
    hook = InterruptAfter(1)
    with pytest.raises(CheckpointInterrupt) as exc:
        run_spec(spec, checkpoint_every=75, checkpoint_dir=tmp_path,
                 interrupt=hook)
    assert hook.calls == 1
    payload = load_checkpoint(exc.value.path, kind="run_spec")
    assert payload is not None
    r = run_spec(spec, resume_from=payload)
    assert digest(r) == golden


def test_snapshot_roundtrip_under_live_fault_injection():
    """Freeze a mesh mid-fault-burst (injector RNG and pending fault
    state included), thaw it, and run both copies to quiescence: the
    restored network must shadow the original cycle for cycle."""
    cfg = NoCConfig(width=4, height=4, mechanism="gflov", seed=5)

    def build() -> Network:
        net = Network(cfg)
        net.attach_faults(FaultInjector(
            FaultPlan(seed=5, hs_drop=0.2, hs_dup=0.1, hs_delay=0.2)))
        net.set_gating(StaticGating(cfg.num_routers, 0.4, seed=5))
        return net

    original = build()
    gen = TrafficGenerator(original, get_pattern("uniform", cfg), 0.05,
                           seed=5)
    for _ in range(700):
        gen.tick()
        original.step()

    frozen = json.loads(json.dumps({"net": original.snapshot_state(),
                                    "traffic": gen.snapshot_state()}))
    restored = build()
    restored.restore_state(frozen["net"])
    gen2 = TrafficGenerator(restored, get_pattern("uniform", cfg), 0.05,
                            seed=5)
    gen2.restore_state(frozen["traffic"])

    for n, g in ((original, gen), (restored, gen2)):
        for _ in range(700):
            g.tick()
            n.step()
    assert original.snapshot_state() == restored.snapshot_state()


MECH = st.sampled_from(MECHANISMS)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(mech=MECH, seed=st.integers(0, 1_000),
       gated=st.floats(0.0, 0.8), cycles=st.integers(0, 400))
def test_snapshot_roundtrip_property(mech, seed, gated, cycles):
    """Any mid-run snapshot JSON-round-trips and rebuilds a network
    whose own snapshot is identical — restore loses nothing."""
    cfg = NoCConfig(width=4, height=4, mechanism=mech, seed=seed)
    net = Network(cfg)
    net.set_gating(StaticGating(cfg.num_routers, gated, seed=seed))
    gen = TrafficGenerator(net, get_pattern("uniform", cfg), 0.06, seed=seed)
    for _ in range(cycles):
        gen.tick()
        net.step()
    snap = json.loads(json.dumps(net.snapshot_state()))
    clone = Network(cfg)
    clone.restore_state(snap)
    assert clone.snapshot_state() == snap


# -- schema-v1 files written before the VC bitmasks existed -------------------

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("mechanism", ["gflov", "nord"])
@pytest.mark.parametrize("kernel", ["active", "dense"])
def test_v1_checkpoint_from_parent_commit_resumes(mechanism, kernel):
    """``fixtures/ckpt_v1_*.json`` were written mid-run by the commit
    before the ACTIVE-VC masks, the ring's busy mask and NoRD's
    candidate list (``make_checkpoint_v1.py`` there): all three are
    derived, so this build must restore the file as it is, finish with
    the digest that commit computed, and still write v1."""
    payload = json.loads((FIXTURES / f"ckpt_v1_{mechanism}.json").read_text())
    golden = payload.pop("golden_digest")
    assert payload["schema"] == SNAPSHOT_SCHEMA_VERSION == 1
    assert payload["phase"] == "measure", "fixture must be mid-run"
    assert sum(r["n_active"] for r in payload["net"]["routers"]) > 0
    if mechanism == "nord":
        assert any(payload["net"]["mech"]["ring"]["queues"])
    spec = ExperimentSpec(**dict(payload["spec"], kernel=kernel))
    assert digest(run_spec(spec, resume_from=payload)) == golden

    # re-snapshotting the restored state reproduces the router records
    # key for key: counts stay on disk, masks never reach it
    net = Network(spec.config(), kernel=kernel)
    net.restore_state(payload["net"])
    assert not derived_state_violations(net)
    again = net.snapshot_state()
    assert again["routers"] == payload["net"]["routers"]
    assert again["mech"].keys() == payload["net"]["mech"].keys()


@pytest.mark.parametrize("edit", ["add_price", "drop_counter"])
def test_restore_refuses_counters_other_than_the_accountants(edit):
    """A checkpoint restores exactly the accountant's event counters: one
    that names a price (``router_w``) or lacks a counter is refused
    instead of silently re-pricing or half-restoring the run."""
    payload = json.loads((FIXTURES / "ckpt_v1_gflov.json").read_text())
    counters = payload["net"]["accountant"]["counters"]
    if edit == "add_price":
        counters["router_w"] = 0.0
    else:
        del counters["arbitrations"]
    spec = ExperimentSpec(**payload["spec"])
    net = Network(spec.config())
    with pytest.raises(SnapshotError, match="accountant counters"):
        net.restore_state(payload["net"])
    assert net.accountant.router_w > 0
    with pytest.raises(SnapshotError):
        run_spec(spec, resume_from=payload)


# -- atomic-io primitives the checkpoint layer is built on -------------------


def test_atomic_write_json_replaces_whole_document(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_json(path, {"v": 1})
    atomic_write_json(path, {"v": 2})
    assert read_json_checked(path) == {"v": 2}
    assert not list(tmp_path.glob("*.tmp")), "no temp-file litter"


def test_read_json_checked_discards_corrupt_files(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{not json")
    with pytest.warns(RuntimeWarning, match="discarding"):
        assert read_json_checked(path) is None
    assert not path.exists()
    # discard=False inspects without destroying the evidence
    path.write_text("{not json")
    with pytest.warns(RuntimeWarning):
        assert read_json_checked(path, discard=False) is None
    assert path.exists()


def test_jsonl_survives_torn_final_line(tmp_path):
    path = tmp_path / "log.jsonl"
    append_jsonl(path, {"n": 1})
    append_jsonl(path, {"n": 2})
    with open(path, "a") as fh:
        fh.write('{"n": 3, "torn')  # killed mid-append
    with pytest.warns(RuntimeWarning, match="skipping corrupt"):
        records = read_jsonl(path)
    assert records == [{"n": 1}, {"n": 2}]
    assert read_jsonl(tmp_path / "absent.jsonl") == []


def test_missing_checkpoint_is_none_without_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_checkpoint(tmp_path / "nope.json") is None
