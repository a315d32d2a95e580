"""Typed component registries: the single source of component names.

Every component family in the simulator — gating
*mechanisms*, traffic *patterns*, PARSEC *workloads*, simulation
*kernels*, and OS gating *schedules* — is named in exactly one place:
the :class:`Registry` instances defined here.  Every other layer
(``NoCConfig`` validation, :class:`~repro.noc.network.Network`
construction, the experiment spec, the CLI's ``choices=`` lists, the
benchmark grids) performs a thin registry lookup, so adding a component
means registering it once and every layer picks it up automatically.

Registration styles
-------------------

* **Lazy entries** (used for mechanisms and kernels) are declared below
  with :meth:`Registry.register_lazy`; the implementing module is only
  imported when the entry is first resolved, so importing
  ``repro.registry`` stays cheap.
* **Self-registration** (used for patterns, workloads and schedules):
  the home module calls :meth:`Registry.register` at import time, and
  the registry carries a ``populate`` hook naming that module so the
  first lookup triggers the import.

Error contract
--------------

* Registering a name twice raises :class:`DuplicateComponentError`.
* Looking up an unknown name raises :class:`UnknownComponentError`
  whose message lists the valid choices.  Both are ``ValueError``
  subclasses, so existing ``except ValueError`` call sites keep
  working.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Generic, Iterator, TypeVar

T = TypeVar("T")

_MISSING = object()


class DuplicateComponentError(ValueError):
    """A component name was registered twice in the same registry."""


class UnknownComponentError(ValueError):
    """A lookup named a component the registry does not know.

    The message always lists the valid choices.
    """


class Registry(Generic[T]):
    """An ordered name -> component mapping with lazy entries.

    Parameters
    ----------
    kind:
        Human-readable component family name, used in error messages
        (``"mechanism"``, ``"traffic pattern"``, ...).
    populate:
        Optional module name imported on the first lookup; the module
        registers its components at import time (self-registration).
    """

    def __init__(self, kind: str, *, populate: str | None = None) -> None:
        self.kind = kind
        self._populate = populate
        self._populated = populate is None
        #: resolved entries, in registration order
        self._entries: dict[str, T] = {}
        #: lazy entries: name -> (module, attribute)
        self._lazy: dict[str, tuple[str, str]] = {}
        #: insertion order across both entry kinds
        self._order: list[str] = []

    # -- registration ---------------------------------------------------------

    def _check_new(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise TypeError(f"{self.kind} name must be a non-empty string, "
                            f"got {name!r}")
        if name in self._entries or name in self._lazy:
            raise DuplicateComponentError(
                f"{self.kind} {name!r} is already registered")

    def register(self, name: str, obj: Any = _MISSING) -> Any:
        """Register ``obj`` under ``name``; usable as a decorator.

        ``register(name, obj)`` registers directly and returns ``obj``;
        ``@register(name)`` registers the decorated object.
        """
        if obj is _MISSING:
            def decorator(target: T) -> T:
                self.register(name, target)
                return target
            return decorator
        self._check_new(name)
        self._entries[name] = obj
        self._order.append(name)
        return obj

    def register_lazy(self, name: str, module: str, attr: str) -> None:
        """Register ``module:attr`` to be imported on first resolution."""
        self._check_new(name)
        self._lazy[name] = (module, attr)
        self._order.append(name)

    # -- population -----------------------------------------------------------

    def _ensure_populated(self) -> None:
        if not self._populated:
            # flip first: the module's own imports may look things up
            self._populated = True
            importlib.import_module(self._populate)  # type: ignore[arg-type]

    # -- lookup ---------------------------------------------------------------

    def get(self, name: str) -> T:
        """The component registered under ``name``.

        Resolves lazy entries (importing their module) and raises
        :class:`UnknownComponentError` listing the valid choices for an
        unknown name.
        """
        self._ensure_populated()
        try:
            return self._entries[name]
        except KeyError:
            pass
        try:
            module, attr = self._lazy[name]
        except KeyError:
            raise UnknownComponentError(
                f"unknown {self.kind} {name!r}; expected one of "
                f"{sorted(self._order)}") from None
        obj = getattr(importlib.import_module(module), attr)
        self._entries[name] = obj
        return obj

    def names(self) -> tuple[str, ...]:
        """All registered names, in registration order.

        Triggers the ``populate`` import so self-registering families
        are complete.
        """
        self._ensure_populated()
        return tuple(self._order)

    def items(self) -> Iterator[tuple[str, T]]:
        """``(name, component)`` pairs in registration order (resolves
        every lazy entry)."""
        for name in self.names():
            yield name, self.get(name)

    def __contains__(self, name: object) -> bool:
        self._ensure_populated()
        return name in self._entries or name in self._lazy

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind}: {self.names()}>"


# -- the registries -----------------------------------------------------------

#: gating mechanisms: name -> Mechanism subclass (lazy; registration
#: order defines the canonical MECHANISMS tuple in repro.config)
MECHANISMS: Registry[type] = Registry("mechanism")
MECHANISMS.register_lazy("baseline", "repro.noc.mechanism",
                         "BaselineMechanism")
MECHANISMS.register_lazy("rp", "repro.baselines.router_parking",
                         "RouterParkingMechanism")
MECHANISMS.register_lazy("rflov", "repro.core.flov", "RFlovMechanism")
MECHANISMS.register_lazy("gflov", "repro.core.flov", "GFlovMechanism")
MECHANISMS.register_lazy("nord", "repro.baselines.nord", "NordMechanism")

#: traffic patterns: name -> factory ``(cfg, **kwargs) -> PatternFn``
#: (self-registered by repro.traffic.patterns)
PATTERNS: Registry[Callable[..., Any]] = Registry(
    "traffic pattern", populate="repro.traffic.patterns")

#: PARSEC workload profiles: name -> WorkloadProfile
#: (self-registered by repro.fullsystem.workloads)
WORKLOADS: Registry[Any] = Registry(
    "PARSEC workload", populate="repro.fullsystem.workloads")

#: simulation kernels: name -> Network step-method attribute
KERNELS: Registry[Any] = Registry("simulation kernel")
KERNELS.register("active", "_step_active")
KERNELS.register("dense", "_step_dense")
# ``batched`` aliases the active step for a solo Network (a batch of one
# is just activity-driven execution); cross-replica batching lives in
# repro.noc.batched / repro.harness.parallel.BatchedExecutor
KERNELS.register("batched", "_step_active")

#: gating-schedule builders: name -> ``(cfg, args: dict) -> GatingSchedule``
#: (self-registered by repro.gating.schedule)
SCHEDULES: Registry[Callable[..., Any]] = Registry(
    "gating schedule", populate="repro.gating.schedule")
