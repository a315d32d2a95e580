"""ExperimentSpec / SweepSpec validation, serialization, spec files, and
the cache-key compatibility contract (``src/repro/spec.py``)."""

import json

import pytest

from repro.config import NoCConfig
from repro.gating.schedule import EpochGating, StaticGating
from repro.harness import run_spec
from repro.harness.cache import result_to_dict, spec_digest, stable_digest
from repro.spec import ExperimentSpec, SpecError, SweepSpec, load_spec_file


# -- validation ---------------------------------------------------------------

def test_unknown_mechanism_lists_choices():
    with pytest.raises(SpecError, match="baseline"):
        ExperimentSpec("warp-drive")


def test_unknown_pattern_lists_choices():
    with pytest.raises(SpecError, match="uniform"):
        ExperimentSpec("gflov", pattern="zigzag")


def test_unknown_kernel_rejected():
    with pytest.raises(SpecError, match="active"):
        ExperimentSpec("gflov", kernel="hyperspeed")


def test_unknown_workload_rejected():
    with pytest.raises(SpecError, match="swaptions"):
        ExperimentSpec("gflov", workload="doom")


def test_unknown_schedule_kind_rejected():
    with pytest.raises(SpecError, match="static"):
        ExperimentSpec("gflov", schedule={"kind": "chaos"})
    with pytest.raises(SpecError, match="kind"):
        ExperimentSpec("gflov", schedule={"fraction": 0.5})


@pytest.mark.parametrize("kwargs", [
    dict(rate=-0.1),
    dict(gated_fraction=1.5),
    dict(warmup=-1),
    dict(measure="lots"),
    dict(seed=True),
    dict(drain="yes"),
])
def test_bad_scalar_values_rejected(kwargs):
    with pytest.raises(SpecError):
        ExperimentSpec("gflov", **kwargs)


def test_override_validation():
    # unknown NoCConfig field
    with pytest.raises(SpecError, match="unknown NoCConfig override"):
        ExperimentSpec("gflov", overrides={"wings": 2})
    # spec-level fields may not hide in overrides
    with pytest.raises(SpecError, match="spec-level"):
        ExperimentSpec("gflov", overrides={"mechanism": "rp"})
    with pytest.raises(SpecError, match="spec-level"):
        ExperimentSpec("gflov", overrides={"seed": 9})
    # values flow into NoCConfig validation
    with pytest.raises(SpecError, match="invalid configuration"):
        ExperimentSpec("gflov", overrides={"width": -4})


def test_pattern_kwargs_validated_against_factory():
    ExperimentSpec("gflov", pattern="hotspot",
                   pattern_kwargs={"hotspots": [27], "weight": 0.4})
    with pytest.raises(SpecError, match="invalid pattern kwargs"):
        ExperimentSpec("gflov", pattern="uniform",
                       pattern_kwargs={"bogus": 1})
    with pytest.raises(SpecError, match="JSON-serializable"):
        ExperimentSpec("gflov", pattern="hotspot",
                       pattern_kwargs={"hotspots": object()})


def test_pattern_kwargs_bound_against_each_factory(monkeypatch):
    """Signatures are read once per factory *object*: a pattern name
    registered with another factory is validated against that factory's
    own signature, never one remembered under the name."""
    from repro import registry

    def narrow(cfg, width=1):  # pragma: no cover - never called
        return None

    def wide(cfg, width=1, depth=2):  # pragma: no cover - never called
        return None

    for factory, ok, bad in ((narrow, {"width": 2}, {"depth": 3}),
                             (wide, {"depth": 3}, {"breadth": 4}),
                             (narrow, {"width": 5}, {"depth": 6})):
        patterns = registry.Registry("traffic pattern")
        patterns.register("probe", factory)
        monkeypatch.setattr(registry, "PATTERNS", patterns)
        ExperimentSpec("gflov", pattern="probe", pattern_kwargs=ok)
        with pytest.raises(SpecError, match="invalid pattern kwargs"):
            ExperimentSpec("gflov", pattern="probe", pattern_kwargs=bad)


def test_config_is_built_once_and_shared():
    """Validation builds the spec's NoCConfig; config(), cache_key() and
    resolved() reuse that frozen object rather than building another."""
    from dataclasses import replace

    from repro.harness import default_cycles

    spec = ExperimentSpec("rp", measure=20, seed=4,
                          overrides={"width": 4, "height": 4})
    cfg = spec.config()
    assert cfg is spec.config()
    assert cfg == NoCConfig(mechanism="rp", seed=4, width=4, height=4)
    # warmup unset: resolved() pins it without validating again
    pinned = spec.resolved()
    assert pinned.config() is cfg
    assert pinned == replace(spec, warmup=default_cycles()[0])
    assert spec.cache_key() == pinned.cache_key()
    assert spec.cache_key()["config"] == cfg.to_dict()


def test_workload_args_keys_checked():
    ExperimentSpec("gflov", workload="swaptions",
                   workload_args={"instructions": 100})
    with pytest.raises(SpecError, match="workload_args"):
        ExperimentSpec("gflov", workload="swaptions",
                       workload_args={"speed": 11})


def test_spec_is_frozen():
    spec = ExperimentSpec("gflov")
    with pytest.raises(AttributeError):
        spec.rate = 0.5


# -- serialization ------------------------------------------------------------

def test_round_trip_idempotent():
    spec = ExperimentSpec("rflov", pattern="hotspot",
                          pattern_kwargs={"hotspots": [27], "weight": 0.4},
                          rate=0.05, gated_fraction=0.3, warmup=100,
                          measure=400, seed=9, kernel="dense",
                          overrides={"width": 4, "height": 4})
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.canonical_json() == spec.canonical_json()
    assert again.stable_hash() == spec.stable_hash()


def test_stable_hash_key_order_insensitive():
    a = ExperimentSpec.from_dict({"mechanism": "gflov", "rate": 0.04,
                                  "seed": 2})
    b = ExperimentSpec.from_dict({"seed": 2, "rate": 0.04,
                                  "mechanism": "gflov"})
    assert a.stable_hash() == b.stable_hash()
    # canonical JSON is sorted + compact
    blob = a.canonical_json()
    assert json.loads(blob) == a.to_dict()
    assert list(json.loads(blob)) == sorted(json.loads(blob))
    assert ": " not in blob


def test_from_dict_rejects_unknown_and_missing_fields():
    with pytest.raises(SpecError, match="unknown spec field"):
        ExperimentSpec.from_dict({"mechanism": "gflov", "wings": 2})
    with pytest.raises(SpecError, match="mechanism"):
        ExperimentSpec.from_dict({"pattern": "uniform"})


def test_resolved_pins_cycle_defaults():
    from repro.harness import default_cycles
    dw, dm = default_cycles()
    spec = ExperimentSpec("gflov").resolved()
    assert (spec.warmup, spec.measure) == (dw, dm)
    pinned = ExperimentSpec("gflov", warmup=7, measure=11)
    assert pinned.resolved() is pinned


def test_build_schedule():
    cfg = NoCConfig()
    static = ExperimentSpec("gflov",
                            schedule={"kind": "static", "fraction": 0.5})
    assert isinstance(static.build_schedule(cfg), StaticGating)
    epochs = ExperimentSpec(
        "gflov", schedule={"kind": "epoch",
                           "epochs": [[0, []], [500, [1, 2, 3]]]})
    assert isinstance(epochs.build_schedule(cfg), EpochGating)
    assert ExperimentSpec("gflov").build_schedule(cfg) is None


def test_declarative_schedule_equivalence():
    """A declarative epoch schedule runs exactly like the live
    ``EpochGating`` object it describes."""
    kw = dict(rate=0.04, warmup=150, measure=600, seed=11)
    epochs = [(0, ()), (300, (1, 2, 3, 10))]
    live = run_spec(ExperimentSpec("gflov", **kw),
                    schedule=EpochGating(epochs))
    declarative = run_spec(ExperimentSpec(
        "gflov", schedule={"kind": "epoch",
                           "epochs": [[s, list(ids)] for s, ids in epochs]},
        **kw))
    assert stable_digest(result_to_dict(declarative)) == \
        stable_digest(result_to_dict(live))


# -- cache-key compatibility --------------------------------------------------

def test_cache_key_matches_legacy_layout():
    """The spec cache key is byte-identical to the pre-spec SweepTask key
    whenever the post-spec fields are unused."""
    spec = ExperimentSpec("gflov", pattern="tornado", rate=0.05,
                          gated_fraction=0.4, warmup=100, measure=400,
                          seed=3, overrides={"width": 4, "height": 4})
    legacy = {
        "config": NoCConfig(mechanism="gflov", seed=3, width=4,
                            height=4).to_dict(),
        "pattern": "tornado",
        "rate": 0.05,
        "gated_fraction": 0.4,
        "seed": 3,
        "warmup": 100,
        "measure": 400,
        "drain": True,
        "keep_samples": False,
    }
    assert spec.cache_key() == legacy
    assert spec_digest(spec) == stable_digest(legacy)


def test_cache_key_excludes_kernel():
    base = ExperimentSpec("gflov", warmup=10, measure=20)
    dense = ExperimentSpec("gflov", warmup=10, measure=20, kernel="dense")
    assert base.cache_key() == dense.cache_key()
    assert base.stable_hash() != dense.stable_hash()  # full hash differs


def test_cache_key_appends_new_fields_only_when_used():
    plain = ExperimentSpec("gflov", warmup=10, measure=20)
    assert "pattern_kwargs" not in plain.cache_key()
    assert "schedule" not in plain.cache_key()
    assert "workload" not in plain.cache_key()
    fancy = ExperimentSpec("gflov", pattern="hotspot",
                           pattern_kwargs={"hotspots": [27]},
                           warmup=10, measure=20,
                           schedule={"kind": "static", "fraction": 0.2})
    key = fancy.cache_key()
    assert key["pattern_kwargs"] == {"hotspots": [27]}
    assert key["schedule"] == {"kind": "static", "fraction": 0.2}
    assert stable_digest(key) != stable_digest(plain.cache_key())


# -- SweepSpec ----------------------------------------------------------------

def test_sweep_expand_order_is_mechanism_major():
    sweep = SweepSpec(mechanisms=("baseline", "gflov"), rates=(0.02, 0.08),
                      gated_fractions=(0.0, 0.4), warmup=10, measure=20)
    cells = sweep.expand()
    assert [(c.mechanism, c.rate, c.gated_fraction) for c in cells] == [
        ("baseline", 0.02, 0.0), ("baseline", 0.02, 0.4),
        ("baseline", 0.08, 0.0), ("baseline", 0.08, 0.4),
        ("gflov", 0.02, 0.0), ("gflov", 0.02, 0.4),
        ("gflov", 0.08, 0.0), ("gflov", 0.08, 0.4),
    ]


def test_sweep_round_trip_and_validation():
    sweep = SweepSpec(mechanisms=("rp",), pattern="tornado",
                      gated_fractions=(0.2,), warmup=10, measure=20)
    assert SweepSpec.from_dict(sweep.to_dict()) == sweep
    with pytest.raises(SpecError, match="non-empty"):
        SweepSpec(mechanisms=())
    with pytest.raises(SpecError, match="unknown mechanism"):
        SweepSpec(mechanisms=("baseline", "warp-drive"))
    with pytest.raises(SpecError, match="unknown sweep spec field"):
        SweepSpec.from_dict({"mechanisms": ["rp"], "wings": 2})
    with pytest.raises(SpecError, match="mechanisms"):
        SweepSpec.from_dict({"pattern": "uniform"})


# -- spec files ---------------------------------------------------------------

def test_from_file_json(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"mechanism": "rp", "rate": 0.04,
                                "warmup": 10, "measure": 20}))
    spec = load_spec_file(str(path))
    assert isinstance(spec, ExperimentSpec)
    assert (spec.mechanism, spec.rate) == ("rp", 0.04)
    assert ExperimentSpec.from_file(str(path)) == spec


def test_from_file_toml(tmp_path):
    path = tmp_path / "cell.toml"
    path.write_text('mechanism = "gflov"\n'
                    'pattern = "tornado"\n'
                    'gated_fraction = 0.4\n'
                    '[overrides]\nwidth = 4\nheight = 4\n')
    spec = load_spec_file(str(path))
    assert isinstance(spec, ExperimentSpec)
    assert spec.pattern == "tornado"
    assert dict(spec.overrides) == {"width": 4, "height": 4}


def test_from_file_sweep_dispatch(tmp_path):
    path = tmp_path / "sweep.toml"
    path.write_text('mechanisms = ["baseline", "gflov"]\n'
                    'gated_fractions = [0.0, 0.4]\n')
    spec = load_spec_file(str(path))
    assert isinstance(spec, SweepSpec)
    assert SweepSpec.from_file(str(path)) == spec
    with pytest.raises(SpecError, match="expected ExperimentSpec"):
        ExperimentSpec.from_file(str(path))


def test_bad_spec_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SpecError, match="cannot read"):
        load_spec_file(str(missing))
    bad_toml = tmp_path / "bad.toml"
    bad_toml.write_text("mechanism = \n")
    with pytest.raises(SpecError, match="invalid TOML"):
        load_spec_file(str(bad_toml))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    with pytest.raises(SpecError, match="invalid JSON"):
        load_spec_file(str(bad_json))
    not_mapping = tmp_path / "list.json"
    not_mapping.write_text("[1, 2]")
    with pytest.raises(SpecError, match="mapping"):
        load_spec_file(str(not_mapping))
    bad_field = tmp_path / "field.json"
    bad_field.write_text(json.dumps({"mechanism": "warp-drive"}))
    with pytest.raises(SpecError, match="unknown mechanism"):
        load_spec_file(str(bad_field))


def test_checked_in_example_specs_validate():
    from pathlib import Path
    specs = Path(__file__).resolve().parents[1] / "examples" / "specs"
    for name in ("fig6_cell.toml", "fig6_sweep.toml", "hotspot_cell.json"):
        spec = load_spec_file(str(specs / name))
        assert spec.stable_hash()
