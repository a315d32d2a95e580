"""Fly-Over (FLOV) reproduction: distributed NoC power-gating.

Public API::

    from repro import NoCConfig, Network, TrafficGenerator, StaticGating
    cfg = NoCConfig(mechanism="gflov")
    net = Network(cfg)
    net.set_gating(StaticGating(cfg.num_routers, 0.4, protect=...))
    ...
"""
from .config import MECHANISMS, NoCConfig, PowerConfig, SystemConfig, table1_config
from .gating import EpochGating, GatingSchedule, StaticGating
from .noc import Direction, Network, Packet, StatsCollector
from .registry import KERNELS, PATTERNS, SCHEDULES, WORKLOADS, Registry
from .spec import ExperimentSpec, SpecError, SweepSpec, load_spec_file
from .traffic import TrafficGenerator, get_pattern

__version__ = "1.0.0"

__all__ = [
    "NoCConfig", "PowerConfig", "SystemConfig", "MECHANISMS", "table1_config",
    "Network", "Direction", "Packet", "StatsCollector",
    "TrafficGenerator", "get_pattern",
    "GatingSchedule", "StaticGating", "EpochGating",
    "Registry", "KERNELS", "PATTERNS", "SCHEDULES", "WORKLOADS",
    "ExperimentSpec", "SweepSpec", "SpecError", "load_spec_file",
]
