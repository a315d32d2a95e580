"""DSENT-like power modeling and energy accounting."""
from .accounting import EnergyAccountant, EnergyReport
from .dsent import link_static_w, router_breakdown

__all__ = ["EnergyAccountant", "EnergyReport", "router_breakdown",
           "link_static_w"]
