"""The paper's contribution: FLOV routers, handshakes, dynamic routing.

The mechanisms live in ``repro.core.flov``, which is not imported here:
the NoC substrate needs ``repro.core.routing`` at import time, and
importing ``flov`` from this package would close an import cycle.
"""
from .power_fsm import PowerState
from .routing import escape_route, flov_route

__all__ = ["PowerState", "flov_route", "escape_route"]
