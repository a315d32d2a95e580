"""Simulation configuration objects.

Defaults reproduce Table I of the FLOV paper (IPDPS 2017):

====================  =========================================
Network Topology      8x8 mesh
Input Buffer Depth    6 flits
Router                3-stage (3 cycles)
Virtual Channels      3 regular VCs + 1 escape VC per vnet, 3 vnets
Packet Size           4 flits/packet (synthetic)
Technology            32 nm
Clock Frequency       2 GHz
Link                  1 mm, 1 cycle, 16 B width
Power-Gating          overhead = 17.7 pJ, wakeup latency = 10 cycles
Baseline Routing      YX routing
====================  =========================================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any

from .registry import MECHANISMS as _MECHANISM_REGISTRY

#: Power-gating / routing mechanisms implemented by the simulator — the
#: mechanism registry's entries, in registration order.
MECHANISMS = _MECHANISM_REGISTRY.names()


@dataclass(frozen=True)
class NoCConfig:
    """Configuration for the cycle-level NoC simulator.

    All latencies are in router clock cycles (2 GHz by default).
    """

    #: Mesh width (number of columns; x grows eastward).
    width: int = 8
    #: Mesh height (number of rows; y grows northward).
    height: int = 8
    #: Regular (adaptive) virtual channels per virtual network.
    num_vcs: int = 3
    #: Escape virtual channels per virtual network (deadlock recovery).
    escape_vcs: int = 1
    #: Number of virtual networks (message classes); 3 for full system.
    num_vnets: int = 1
    #: Input buffer depth per VC, in flits.
    buffer_depth: int = 6
    #: Router pipeline depth in cycles (3-stage router).
    router_latency: int = 3
    #: Link traversal latency in cycles.
    link_latency: int = 1
    #: Credit return latency in cycles.
    credit_latency: int = 1
    #: Flit width in bytes.
    flit_width_bytes: int = 16
    #: Packet size in flits for synthetic traffic.
    packet_size: int = 4
    #: Power-gating mechanism: one of :data:`MECHANISMS`.
    mechanism: str = "baseline"
    #: Cycles a router's local port must be idle before it tries to drain.
    idle_threshold: int = 64
    #: Cycles the baseline-router power-on sequence takes (Table I).
    wakeup_latency: int = 10
    #: Cycles a flit may wait in a regular VC before being pushed to escape.
    escape_timeout: int = 32
    #: Column of always-on (AON) routers: the east edge, given as -1 or
    #: ``width - 1`` (the escape network's routing assumes that edge).
    aon_column: int = -1
    #: RP fabric-manager Phase-I reconfiguration stall, in cycles (paper: >700).
    rp_reconfig_latency: int = 700
    #: RP parking policy: "aggressive" parks every candidate that keeps the
    #: on-subgraph connected; "conservative" additionally bounds detour length.
    rp_policy: str = "aggressive"
    #: RNG seed for allocator tie-breaking jitter and traffic.
    seed: int = 1

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("mesh must be at least 2x2")
        if self.mechanism not in _MECHANISM_REGISTRY:
            raise ValueError(f"unknown mechanism {self.mechanism!r}; "
                             f"expected one of "
                             f"{_MECHANISM_REGISTRY.names()}")
        if self.num_vcs < 1:
            raise ValueError("need at least one regular VC")
        if self.escape_vcs < 1 and getattr(
                _MECHANISM_REGISTRY.get(self.mechanism), "uses_escape",
                False):
            raise ValueError(f"{self.mechanism} requires at least one "
                             f"escape VC")
        if self.buffer_depth < 1:
            raise ValueError("buffer depth must be positive")
        if self.aon_column not in (-1, self.width - 1):
            raise ValueError("AON column must be the east edge "
                             "(-1 or width - 1)")

    # -- derived quantities -------------------------------------------------

    @property
    def num_routers(self) -> int:
        """Total number of routers/nodes in the mesh."""
        return self.width * self.height

    @property
    def vcs_per_vnet(self) -> int:
        """Total VCs in one vnet (regular + escape)."""
        return self.num_vcs + self.escape_vcs

    @property
    def total_vcs(self) -> int:
        """Total VCs per input port across all vnets."""
        return self.vcs_per_vnet * self.num_vnets

    @property
    def resolved_aon_column(self) -> int:
        """AON column index with -1 resolved to the east edge."""
        return self.aon_column % self.width

    def node_xy(self, node: int) -> tuple[int, int]:
        """Convert node id to ``(x, y)`` coordinates."""
        return node % self.width, node // self.width

    def node_id(self, x: int, y: int) -> int:
        """Convert ``(x, y)`` coordinates to node id."""
        return y * self.width + x

    def vc_index(self, vnet: int, vc_in_vnet: int) -> int:
        """Flatten ``(vnet, vc)`` into a global VC index."""
        return vnet * self.vcs_per_vnet + vc_in_vnet

    def escape_vc_of(self, vnet: int) -> int:
        """Global index of the (first) escape VC of a vnet."""
        return vnet * self.vcs_per_vnet + self.num_vcs

    def is_escape_vc(self, vc: int) -> bool:
        """True if the global VC index ``vc`` denotes an escape VC."""
        return (vc % self.vcs_per_vnet) >= self.num_vcs

    def vnet_of(self, vc: int) -> int:
        """Virtual network a global VC index belongs to."""
        return vc // self.vcs_per_vnet

    def with_(self, **kwargs: Any) -> "NoCConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- stable serialization (experiment cache keys) -----------------------

    def to_dict(self) -> dict[str, Any]:
        """All declared fields as a plain JSON-serializable dict.

        The mapping is *stable*: it contains exactly the dataclass fields
        in declaration order, so it round-trips through
        :meth:`from_dict` and feeds :meth:`stable_hash`.
        """
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "NoCConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        unknown = set(data) - set(_FIELD_NAMES)
        if unknown:
            raise ValueError(f"unknown NoCConfig fields: {sorted(unknown)}")
        return cls(**data)

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def stable_hash(self) -> str:
        """Content hash of the configuration, stable across processes.

        Unlike ``hash()``, this does not depend on ``PYTHONHASHSEED`` or
        the process, so it is usable as an on-disk cache-key component.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


#: NoCConfig field names in declaration order, read once at import
#: (``to_dict`` runs once per cache key)
_FIELD_NAMES = tuple(f.name for f in fields(NoCConfig))


@dataclass(frozen=True)
class PowerConfig:
    """The 32 nm, 2 GHz technology record every run is priced from.

    Event energies are in joules at the 16 B calibration flit width;
    static densities are in watts per device, calibrated against
    published DSENT 32 nm breakdowns for a 5-port, 4-VC, 6-deep, 128-bit
    mesh router.  :data:`TECH` is the one instance the simulator reads;
    ``repro.power`` turns it into per-configuration prices.
    """

    #: Clock frequency in Hz (Table I).
    frequency_hz: float = 2.0e9
    # energy per event (J) at the 16 B calibration flit width
    buffer_write_j: float = 1.26e-12      # flit buffer write
    buffer_read_j: float = 1.10e-12       # flit buffer read
    xbar_j: float = 1.58e-12              # flit crossbar traversal
    arbiter_j: float = 0.18e-12           # allocation (VA+SA)
    link_j: float = 2.00e-12              # flit over 1 mm, 50% switching
    flov_latch_j: float = 0.35e-12        # FLOV latch write + mux
    gating_overhead_j: float = 17.7e-12   # gating on/off (Table I)
    handshake_j: float = 0.02e-12         # handshake signal hop
    credit_relay_j: float = 0.05e-12      # credit relayed through a sleeper
    # static power (W) per device
    buffer_w_per_bit: float = 1.70e-7     # input-buffer bit
    xbar_w_per_xpoint_bit: float = 2.80e-7  # crossbar crosspoint-bit
    alloc_w_per_line: float = 3.3e-6      # allocator request line
    clock_other_fraction: float = 0.22    # clock + control / the rest
    link_w_per_bit_mm: float = 7.0e-6     # link bit per mm
    latch_w_per_bit: float = 2.0e-7       # FLOV output-latch bit
    hsc_psr_w: float = 0.04e-3            # FLOV HSC FSM + 2 sets of PSRs
    rp_sleep_w: float = 0.10e-3           # parked RP/NoRD router, 16 B 6-deep

    @property
    def cycle_time_s(self) -> float:
        """Duration of one clock cycle in seconds."""
        return 1.0 / self.frequency_hz


#: The technology record: the only source of every watt and joule the
#: power model charges.
TECH = PowerConfig()


@dataclass(frozen=True)
class SystemConfig:
    """Full-system (gem5-like CMP) configuration. Table I memory hierarchy."""

    #: L1 data/instruction cache size per core, bytes (32 KB).
    l1_size_bytes: int = 32 * 1024
    #: L1 associativity.
    l1_assoc: int = 4
    #: Shared L2 total size, bytes (8 MB), banked across nodes.
    l2_size_bytes: int = 8 * 1024 * 1024
    #: L2 associativity.
    l2_assoc: int = 8
    #: Cache line size in bytes.
    line_bytes: int = 64
    #: L1 hit latency (cycles).
    l1_latency: int = 2
    #: L2 bank access latency (cycles).
    l2_latency: int = 10
    #: DRAM access latency (cycles).
    mem_latency: int = 120
    #: Number of memory controllers (Table I: 4 MCs at 4 corners).
    num_mcs: int = 4
    #: Home-bank mapping policy: "interleave_all" or "active_only".
    home_mapping: str = "active_only"
    #: Control packet size in flits (8B header in 16B flits).
    control_flits: int = 1
    #: Data packet size in flits (64B line + header over 16B flits).
    data_flits: int = 5

    def __post_init__(self) -> None:
        if self.home_mapping not in ("interleave_all", "active_only"):
            raise ValueError("home_mapping must be interleave_all|active_only")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")


def table1_config(mechanism: str = "gflov", *, vnets: int = 1,
                  **overrides: Any) -> NoCConfig:
    """The paper's Table I testbed configuration.

    Synthetic-traffic experiments use one vnet; full-system uses three.
    """
    cfg = NoCConfig(mechanism=mechanism, num_vnets=vnets)
    return cfg.with_(**overrides) if overrides else cfg
