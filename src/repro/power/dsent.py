"""DSENT-like analytical power model (32 nm, 2 GHz, 50% switching).

DSENT itself is a gate-level-calibrated analytical tool; we reproduce its
*structure* — per-component static power proportional to device count,
per-event dynamic energy proportional to switched capacitance — with the
densities of :data:`repro.config.TECH`, calibrated against published
DSENT 32 nm breakdowns for mesh routers (Sun et al., NOCS 2012; and the
breakdowns used by the NoC power-gating literature: input buffers
dominate static power, followed by the crossbar and allocators).

At Table I (a 5-port, 4-VC (3 regular + 1 escape), 6-deep, 128-bit
router) the model yields 4.460 mW static per router, 0.896 mW per 1 mm
128-bit link and a 0.142 mW FLOV sleep residual. Absolute values carry
model uncertainty; the paper's results (and ours) are relative
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import TECH, NoCConfig


@dataclass(frozen=True)
class RouterPowerBreakdown:
    """Static power of one router, by component (watts)."""

    buffers: float
    crossbar: float
    allocators: float
    clock_other: float
    #: FLOV additions (Section V-A): 4 flit-wide output latches, 4 mux +
    #: 4 demux, HSC FSM + 2x4x2-bit PSRs.  They stay on while the
    #: baseline portion is power-gated, so this is the sleep residual.
    flov_overhead: float

    @property
    def baseline_total(self) -> float:
        return self.buffers + self.crossbar + self.allocators + self.clock_other


def router_breakdown(cfg: NoCConfig) -> RouterPowerBreakdown:
    """Static power of one router for the given NoC configuration."""
    ports = 5
    flit_bits = cfg.flit_width_bytes * 8
    buffer_bits = ports * cfg.total_vcs * cfg.buffer_depth * flit_bits
    buffers = buffer_bits * TECH.buffer_w_per_bit
    crossbar = ports * ports * flit_bits * TECH.xbar_w_per_xpoint_bit
    alloc_lines = ports * cfg.total_vcs + ports * ports
    allocators = alloc_lines * TECH.alloc_w_per_line
    clock_other = (buffers + crossbar + allocators) * TECH.clock_other_fraction
    flov = 4 * flit_bits * TECH.latch_w_per_bit + TECH.hsc_psr_w
    return RouterPowerBreakdown(buffers=buffers, crossbar=crossbar,
                                allocators=allocators, clock_other=clock_other,
                                flov_overhead=flov)


def link_static_w(cfg: NoCConfig) -> float:
    """Static power of one unidirectional 1 mm link."""
    return cfg.flit_width_bytes * 8 * TECH.link_w_per_bit_mm
