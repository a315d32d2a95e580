"""Registry error paths, lazy entries, and the contents of the built-in
component registries (``src/repro/registry.py``)."""

import pytest

from repro import config
from repro.registry import (KERNELS, MECHANISMS, PATTERNS, SCHEDULES,
                            WORKLOADS, DuplicateComponentError, Registry,
                            UnknownComponentError)


# -- Registry mechanics -------------------------------------------------------

def test_register_direct_and_decorator():
    reg = Registry("thing")
    reg.register("a", 1)

    @reg.register("b")
    def b_factory():
        return "b"

    assert reg.get("a") == 1
    assert reg.get("b") is b_factory
    assert reg.names() == ("a", "b")
    assert len(reg) == 2
    assert "a" in reg and "nope" not in reg
    assert list(reg) == ["a", "b"]


def test_duplicate_name_rejected():
    reg = Registry("thing")
    reg.register("x", 1)
    with pytest.raises(DuplicateComponentError, match="'x' is already"):
        reg.register("x", 2)
    with pytest.raises(DuplicateComponentError):
        reg.register_lazy("x", "math", "sqrt")
    # the error is a ValueError so legacy call sites keep working
    assert issubclass(DuplicateComponentError, ValueError)


def test_unknown_name_lists_choices():
    reg = Registry("gizmo")
    reg.register("beta", 2)
    reg.register("alpha", 1)
    with pytest.raises(UnknownComponentError) as exc:
        reg.get("gamma")
    msg = str(exc.value)
    assert "unknown gizmo 'gamma'" in msg
    assert "alpha" in msg and "beta" in msg
    assert issubclass(UnknownComponentError, ValueError)


def test_bad_name_type_rejected():
    reg = Registry("thing")
    with pytest.raises(TypeError):
        reg.register("", 1)
    with pytest.raises(TypeError):
        reg.register(5, 1)


def test_lazy_entry_imports_on_first_get():
    reg = Registry("fn")
    reg.register_lazy("sqrt", "math", "sqrt")
    assert "sqrt" in reg.names()      # listed without importing
    import math
    assert reg.get("sqrt") is math.sqrt
    assert reg.get("sqrt") is math.sqrt  # cached after first resolve


def test_populate_hook_runs_once():
    # PATTERNS self-populates from repro.traffic.patterns on first use
    assert "uniform" in PATTERNS.names()
    from repro.traffic import patterns
    assert PATTERNS.get("uniform") is patterns.make_uniform


# -- built-in registry contents ----------------------------------------------

def test_mechanism_registry_matches_config_tuple():
    assert MECHANISMS.names() == config.MECHANISMS
    for name, cls in MECHANISMS.items():
        assert isinstance(cls, type), name


def test_kernel_registry():
    assert set(KERNELS.names()) == {"active", "dense", "batched"}
    # built-in kernels resolve to Network step-method names
    for name, step in KERNELS.items():
        assert isinstance(step, str) and step.startswith("_step_")


def test_schedule_registry_builders():
    assert set(SCHEDULES.names()) >= {"none", "static", "epoch",
                                      "random_epochs"}
    cfg = config.NoCConfig()
    from repro.gating.schedule import StaticGating
    sched = SCHEDULES.get("static")(cfg, {"fraction": 0.5})
    assert isinstance(sched, StaticGating)


def test_workload_registry_matches_parsec():
    from repro.fullsystem.workloads import PARSEC
    assert set(WORKLOADS.names()) == set(PARSEC)
