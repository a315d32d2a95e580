"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a frozen, validated, serializable
description of exactly one synthetic-traffic measurement (or, with
``workload=`` set, one full-system PARSEC run); a :class:`SweepSpec`
describes a grid of them (mechanisms x rates x gated fractions).  Every
layer of the stack consumes the same object:

* :func:`repro.harness.runner.run_spec` executes a spec — the one way
  to run an experiment, from the CLI, a sweep, or the service.
* The on-disk result cache keys on :meth:`ExperimentSpec.cache_key`,
  whose layout matches the pre-spec key byte for byte when the new
  fields (pattern kwargs, declarative schedule, workload) are unused —
  existing ``.repro_cache`` entries keep loading.
* The parallel engine's :class:`~repro.harness.parallel.SweepTask`
  wraps a spec; ``repro spec validate|hash|run <file>`` operates on
  spec files.

Spec files are JSON or TOML mappings of the dataclass fields
(see ``docs/specs.md`` and ``examples/specs/``)::

    # fig6_cell.toml
    mechanism = "gflov"
    pattern = "uniform"
    rate = 0.02
    gated_fraction = 0.4

Validation is strict: component names are checked against the
:mod:`repro.registry` registries, pattern kwargs are bound against the
factory signature, config overrides against
:class:`~repro.config.NoCConfig`, and every value must be canonically
JSON-serializable so :meth:`ExperimentSpec.stable_hash` is well defined.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import inspect
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Any

from . import registry
from .config import NoCConfig

__all__ = ["ExperimentSpec", "SweepSpec", "SpecError", "JobEnvelope",
           "load_spec_file"]

#: keys accepted in the ``workload_args`` mapping (full-system runs)
WORKLOAD_ARG_KEYS = ("instructions", "max_cycles", "warmup")

#: names a spec's ``overrides`` may set
_CONFIG_FIELDS = frozenset(f.name for f in fields(NoCConfig))


class SpecError(ValueError):
    """A spec failed validation or could not be parsed."""


def _canonical(value: Any, *, where: str) -> Any:
    """Validate JSON-serializability; normalize tuples to lists."""
    try:
        blob = json.dumps(value, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where} must be JSON-serializable: {exc}") from None
    return json.loads(blob)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SpecError(msg)


def _check_mapping(value: Any, where: str) -> dict[str, Any]:
    _require(isinstance(value, Mapping),
             f"{where} must be a mapping, got {type(value).__name__}")
    out = {}
    for k, v in value.items():
        _require(isinstance(k, str), f"{where} keys must be strings, "
                                     f"got {k!r}")
        out[k] = _canonical(v, where=f"{where}[{k!r}]")
    return out


@functools.lru_cache(maxsize=None)
def _factory_signature(factory: Any) -> inspect.Signature:
    """Signature of a pattern factory, read once per factory object (a
    name re-registered with another factory gets its own entry)."""
    return inspect.signature(factory)


def _validate_pattern_kwargs(pattern: str, kwargs: dict[str, Any]) -> None:
    """Bind ``kwargs`` against the pattern factory's signature."""
    sig = _factory_signature(registry.PATTERNS.get(pattern))
    try:
        sig.bind(None, **kwargs)  # first positional is the NoCConfig
    except TypeError as exc:
        raise SpecError(f"invalid pattern kwargs for {pattern!r}: "
                        f"{exc}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, as data.

    ``warmup``/``measure`` default to ``None`` = "use the repo's cycle
    defaults" (:func:`repro.harness.runner.default_cycles`);
    :meth:`resolved` pins them.  ``kernel=None`` means
    "follow ``REPRO_KERNEL``" and is deliberately excluded from
    :meth:`cache_key` — kernels are bit-identical by contract.
    """

    mechanism: str
    pattern: str = "uniform"
    pattern_kwargs: Mapping[str, Any] = field(default_factory=dict)
    rate: float = 0.02
    gated_fraction: float = 0.0
    warmup: int | None = None
    measure: int | None = None
    seed: int = 1
    kernel: str | None = None
    drain: bool = True
    keep_samples: bool = False
    #: declarative gating schedule: ``{"kind": <SCHEDULES name>, ...}``
    #: (overrides ``gated_fraction``); None = static gating
    schedule: Mapping[str, Any] | None = None
    #: NoCConfig field overrides (mechanism/seed live on the spec itself)
    overrides: Mapping[str, Any] = field(default_factory=dict)
    #: full-system PARSEC profile name; when set the spec describes a
    #: CmpSystem run instead of a synthetic-traffic one
    workload: str | None = None
    workload_args: Mapping[str, Any] = field(default_factory=dict)

    # -- validation -----------------------------------------------------------

    def __post_init__(self) -> None:
        _require(isinstance(self.mechanism, str),
                 f"mechanism must be a string, got {self.mechanism!r}")
        if self.mechanism not in registry.MECHANISMS:
            raise SpecError(
                f"unknown mechanism {self.mechanism!r}; expected one of "
                f"{sorted(registry.MECHANISMS.names())}")
        _require(isinstance(self.pattern, str),
                 f"pattern must be a string, got {self.pattern!r}")
        if self.pattern not in registry.PATTERNS:
            raise SpecError(
                f"unknown traffic pattern {self.pattern!r}; expected one "
                f"of {sorted(registry.PATTERNS.names())}")
        object.__setattr__(self, "pattern_kwargs",
                           _check_mapping(self.pattern_kwargs,
                                          "pattern_kwargs"))
        _validate_pattern_kwargs(self.pattern, dict(self.pattern_kwargs))
        _require(isinstance(self.rate, (int, float))
                 and not isinstance(self.rate, bool) and self.rate >= 0,
                 f"rate must be a non-negative number, got {self.rate!r}")
        object.__setattr__(self, "rate", float(self.rate))
        _require(isinstance(self.gated_fraction, (int, float))
                 and not isinstance(self.gated_fraction, bool)
                 and 0.0 <= self.gated_fraction <= 1.0,
                 f"gated_fraction must be in [0, 1], "
                 f"got {self.gated_fraction!r}")
        object.__setattr__(self, "gated_fraction",
                           float(self.gated_fraction))
        for name in ("warmup", "measure"):
            v = getattr(self, name)
            _require(v is None or (isinstance(v, int)
                                   and not isinstance(v, bool) and v >= 0),
                     f"{name} must be a non-negative integer or null, "
                     f"got {v!r}")
        _require(isinstance(self.seed, int) and not isinstance(self.seed,
                                                               bool),
                 f"seed must be an integer, got {self.seed!r}")
        if self.kernel is not None and self.kernel not in registry.KERNELS:
            raise SpecError(
                f"unknown simulation kernel {self.kernel!r}; expected one "
                f"of {sorted(registry.KERNELS.names())}")
        for name in ("drain", "keep_samples"):
            _require(isinstance(getattr(self, name), bool),
                     f"{name} must be a boolean, got {getattr(self, name)!r}")
        if self.schedule is not None:
            sched = _check_mapping(self.schedule, "schedule")
            kind = sched.get("kind")
            _require(isinstance(kind, str),
                     "schedule must carry a string 'kind' field")
            if kind not in registry.SCHEDULES:
                raise SpecError(
                    f"unknown gating schedule {kind!r}; expected one of "
                    f"{sorted(registry.SCHEDULES.names())}")
            object.__setattr__(self, "schedule", sched)
        object.__setattr__(self, "overrides",
                           _check_mapping(self.overrides, "overrides"))
        for key in self.overrides:
            if key in ("mechanism", "seed"):
                raise SpecError(f"override {key!r} is spec-level; set the "
                                f"spec's own {key!r} field instead")
            if key not in _CONFIG_FIELDS:
                raise SpecError(f"unknown NoCConfig override {key!r}; "
                                f"expected one of {sorted(_CONFIG_FIELDS)}")
        if self.workload is not None:
            if self.workload not in registry.WORKLOADS:
                raise SpecError(
                    f"unknown PARSEC workload {self.workload!r}; expected "
                    f"one of {sorted(registry.WORKLOADS.names())}")
        object.__setattr__(self, "workload_args",
                           _check_mapping(self.workload_args,
                                          "workload_args"))
        for key in self.workload_args:
            if key not in WORKLOAD_ARG_KEYS:
                raise SpecError(f"unknown workload_args key {key!r}; "
                                f"expected one of {list(WORKLOAD_ARG_KEYS)}")
        # full NoCConfig validation (bad width, AON column, ...); the
        # frozen config is kept for config() and cache_key()
        try:
            cfg = NoCConfig(mechanism=self.mechanism, seed=self.seed,
                            **self.overrides)
        except ValueError as exc:
            raise SpecError(f"invalid configuration: {exc}") from None
        object.__setattr__(self, "_config", cfg)

    # -- derived --------------------------------------------------------------

    def config(self) -> NoCConfig:
        """The :class:`NoCConfig` this spec simulates (built once, at
        validation; frozen, so every caller may share it)."""
        return self._config

    def resolved(self) -> "ExperimentSpec":
        """Copy with warmup/measure cycle defaults pinned, so the cache
        key and the executed run name the same cycle counts.

        Only the two cycle fields change, to valid defaults, so the copy
        keeps this spec's validated state (its config included) rather
        than validating again."""
        if self.warmup is not None and self.measure is not None:
            return self
        from .harness.runner import default_cycles
        dw, dm = default_cycles()
        spec = copy.copy(self)
        if self.warmup is None:
            object.__setattr__(spec, "warmup", dw)
        if self.measure is None:
            object.__setattr__(spec, "measure", dm)
        return spec

    def build_schedule(self, cfg: NoCConfig | None = None):
        """Instantiate the declarative gating schedule (or ``None``)."""
        if self.schedule is None:
            return None
        cfg = self.config() if cfg is None else cfg
        args = {k: v for k, v in self.schedule.items() if k != "kind"}
        builder = registry.SCHEDULES.get(self.schedule["kind"])
        return builder(cfg, args)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """All fields, fully explicit (defaults written out)."""
        return {
            "mechanism": self.mechanism,
            "pattern": self.pattern,
            "pattern_kwargs": dict(self.pattern_kwargs),
            "rate": self.rate,
            "gated_fraction": self.gated_fraction,
            "warmup": self.warmup,
            "measure": self.measure,
            "seed": self.seed,
            "kernel": self.kernel,
            "drain": self.drain,
            "keep_samples": self.keep_samples,
            "schedule": (dict(self.schedule)
                         if self.schedule is not None else None),
            "overrides": dict(self.overrides),
            "workload": self.workload,
            "workload_args": dict(self.workload_args),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build from a mapping; unknown or missing keys are errors."""
        _require(isinstance(data, Mapping),
                 f"spec must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown spec field(s) {unknown}; expected a "
                            f"subset of {sorted(known)}")
        if "mechanism" not in data:
            raise SpecError("spec is missing the required 'mechanism' field")
        kwargs = dict(data)
        # TOML has no null: absence already means "default"
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def stable_hash(self) -> str:
        """SHA-256 of :meth:`canonical_json` — key-order independent and
        stable across processes (no ``PYTHONHASHSEED`` involvement)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- cache key ------------------------------------------------------------

    def cache_key(self) -> dict[str, Any]:
        """Key dict for the on-disk result cache.

        **Compatibility contract:** when the spec uses none of the
        post-spec-layer fields (pattern kwargs, declarative schedule,
        workload), the layout is byte-identical to the pre-spec
        ``SweepTask.cache_key()`` dict, so existing ``.repro_cache``
        entries keep hitting.  New fields are appended only when
        non-default, versioning those keys cleanly by construction.
        ``kernel`` is never part of the key (kernels are bit-identical).
        """
        spec = self.resolved()
        key: dict[str, Any] = {
            "config": spec.config().to_dict(),
            "pattern": spec.pattern,
            "rate": spec.rate,
            "gated_fraction": spec.gated_fraction,
            "seed": spec.seed,
            "warmup": spec.warmup,
            "measure": spec.measure,
            "drain": spec.drain,
            "keep_samples": spec.keep_samples,
        }
        if spec.pattern_kwargs:
            key["pattern_kwargs"] = dict(spec.pattern_kwargs)
        if spec.schedule is not None:
            key["schedule"] = dict(spec.schedule)
        if spec.workload is not None:
            key["workload"] = spec.workload
            key["workload_args"] = dict(spec.workload_args)
        return key


@dataclass(frozen=True)
class SweepSpec:
    """A grid of experiments: mechanisms x rates x gated fractions.

    :meth:`expand` yields the cells as :class:`ExperimentSpec` in
    mechanism-major order (mechanism, then rate, then fraction), so
    engine results slice back into per-mechanism series.  The cells are
    built once, to validate the grid, and every caller reads that tuple.
    """

    mechanisms: tuple[str, ...]
    pattern: str = "uniform"
    pattern_kwargs: Mapping[str, Any] = field(default_factory=dict)
    rates: tuple[float, ...] = (0.02,)
    gated_fractions: tuple[float, ...] = (0.0,)
    warmup: int | None = None
    measure: int | None = None
    seed: int = 1
    kernel: str | None = None
    drain: bool = True
    keep_samples: bool = False
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("mechanisms", "rates", "gated_fractions"):
            v = getattr(self, name)
            _require(isinstance(v, (list, tuple)) and len(v) > 0,
                     f"{name} must be a non-empty list, got {v!r}")
            object.__setattr__(self, name, tuple(v))
        # cell-level validation, fail fast
        object.__setattr__(self, "_cells", tuple(
            ExperimentSpec(mechanism=mech, pattern=self.pattern,
                           pattern_kwargs=dict(self.pattern_kwargs),
                           rate=rate, gated_fraction=frac,
                           warmup=self.warmup, measure=self.measure,
                           seed=self.seed, kernel=self.kernel,
                           drain=self.drain,
                           keep_samples=self.keep_samples,
                           overrides=dict(self.overrides))
            for mech in self.mechanisms
            for rate in self.rates
            for frac in self.gated_fractions))

    def expand(self) -> tuple[ExperimentSpec, ...]:
        """Every cell of the grid as a validated :class:`ExperimentSpec`
        (the tuple built with the sweep)."""
        return self._cells

    def to_dict(self) -> dict[str, Any]:
        return {
            "mechanisms": list(self.mechanisms),
            "pattern": self.pattern,
            "pattern_kwargs": dict(self.pattern_kwargs),
            "rates": list(self.rates),
            "gated_fractions": list(self.gated_fractions),
            "warmup": self.warmup,
            "measure": self.measure,
            "seed": self.seed,
            "kernel": self.kernel,
            "drain": self.drain,
            "keep_samples": self.keep_samples,
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        _require(isinstance(data, Mapping),
                 f"sweep spec must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown sweep spec field(s) {unknown}; "
                            f"expected a subset of {sorted(known)}")
        if "mechanisms" not in data:
            raise SpecError("sweep spec is missing the required "
                            "'mechanisms' field")
        return cls(**dict(data))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def stable_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


# -- spec files ---------------------------------------------------------------

def _parse_spec_text(text: str, *, toml: bool) -> Any:
    if toml:
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - py3.10 fallback
            raise SpecError(f"TOML spec files need Python >= 3.11 "
                            f"(tomllib unavailable: {exc})") from None
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"invalid TOML: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from None


def _spec_from_mapping(data: Mapping[str, Any]) -> "ExperimentSpec | SweepSpec":
    """Mapping -> spec, using the ``mechanisms``-plural dispatch rule."""
    _require(isinstance(data, Mapping),
             f"spec must be a mapping, got {type(data).__name__}")
    if "mechanisms" in data:
        return SweepSpec.from_dict(data)
    return ExperimentSpec.from_dict(data)


def load_spec_file(path: str) -> "ExperimentSpec | SweepSpec":
    """Parse a JSON/TOML spec file into a validated spec object.

    ``*.toml`` parses as TOML, anything else as JSON.  A mapping with a
    ``mechanisms`` (plural) field builds a :class:`SweepSpec`; one with
    ``mechanism`` builds an :class:`ExperimentSpec`.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from None
    data = _parse_spec_text(text, toml=path.endswith(".toml"))
    _require(isinstance(data, Mapping),
             f"spec file {path!r} must contain a mapping at the top level")
    return _spec_from_mapping(data)


# -- job envelopes (experiment service) ---------------------------------------

@dataclass(frozen=True)
class JobEnvelope:
    """A validated experiment-service submission: spec + job metadata.

    The envelope is what ``POST /jobs`` accepts — either a bare spec
    mapping (single experiment or sweep, same dispatch rule as spec
    files) or a mapping with a ``spec`` field plus job-level metadata::

        {"spec": {"mechanism": "gflov", ...}, "priority": 5,
         "tags": {"team": "noc"}}

    Validation is strict and happens before anything is queued:
    unknown fields, out-of-range priorities, and non-string tags all
    raise :class:`SpecError` (the service maps that to HTTP 422).
    Full-system ``workload`` specs are rejected — their results are not
    representable in the shared ``.repro_cache`` store, so the service
    cannot dedupe or replay them.
    """

    spec: "ExperimentSpec | SweepSpec"
    priority: int = 0
    tags: Mapping[str, str] = field(default_factory=dict)

    #: accepted priority range (higher runs first)
    MIN_PRIORITY = -100
    MAX_PRIORITY = 100

    def __post_init__(self) -> None:
        _require(isinstance(self.spec, (ExperimentSpec, SweepSpec)),
                 f"spec must be an ExperimentSpec or SweepSpec, "
                 f"got {type(self.spec).__name__}")
        if getattr(self.spec, "workload", None) is not None:
            raise SpecError(
                "full-system workload specs cannot be submitted to the "
                "experiment service (their results are not cacheable); "
                "run them with 'repro spec run' instead")
        _require(isinstance(self.priority, int)
                 and not isinstance(self.priority, bool),
                 f"priority must be an integer, got {self.priority!r}")
        _require(self.MIN_PRIORITY <= self.priority <= self.MAX_PRIORITY,
                 f"priority must be in [{self.MIN_PRIORITY}, "
                 f"{self.MAX_PRIORITY}], got {self.priority}")
        _require(isinstance(self.tags, Mapping),
                 f"tags must be a mapping, got {type(self.tags).__name__}")
        for k, v in self.tags.items():
            _require(isinstance(k, str) and isinstance(v, str),
                     f"tags must map strings to strings, got {k!r}: {v!r}")
        object.__setattr__(self, "tags", dict(self.tags))

    # -- derived --------------------------------------------------------------

    def cells(self) -> tuple[ExperimentSpec, ...]:
        """The experiment cells this job executes, in engine order."""
        if isinstance(self.spec, SweepSpec):
            return self.spec.expand()
        return (self.spec,)

    def dedupe_key(self) -> str:
        """Digest identifying the *work* this job requests.

        Built from the per-cell :meth:`ExperimentSpec.cache_key`
        digests (kernel excluded, cycle defaults resolved), so two
        submissions that would compute identical results — even via
        different kernels or differently-ordered spec files — dedupe
        against each other.
        """
        digests = []
        for cell in self.cells():
            blob = json.dumps(cell.cache_key(), sort_keys=True,
                              separators=(",", ":"))
            digests.append(hashlib.sha256(blob.encode()).hexdigest())
        joined = json.dumps(digests, separators=(",", ":"))
        return hashlib.sha256(joined.encode()).hexdigest()

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"spec": self.spec.to_dict(), "priority": self.priority,
                "tags": dict(self.tags)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobEnvelope":
        """Build from a mapping: either a bare spec or an envelope.

        A mapping carrying a ``spec`` key is an envelope (unknown
        sibling keys are errors); anything else is treated as a bare
        spec with default metadata.
        """
        _require(isinstance(data, Mapping),
                 f"job must be a mapping, got {type(data).__name__}")
        if "spec" not in data:
            return cls(spec=_spec_from_mapping(data))
        known = {"spec", "priority", "tags"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"unknown job field(s) {unknown}; expected a "
                            f"subset of {sorted(known)}")
        return cls(spec=_spec_from_mapping(data["spec"]),
                   priority=data.get("priority", 0),
                   tags=data.get("tags", {}))

    @classmethod
    def from_payload(cls, text: str, *, toml: bool = False) -> "JobEnvelope":
        """Parse a raw JSON/TOML submission body into an envelope."""
        return cls.from_dict(_parse_spec_text(text, toml=toml))
