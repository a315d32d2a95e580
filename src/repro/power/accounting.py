"""Energy accounting: per-event dynamic energy plus integrated static power.

The accountant is deliberately cheap on the hot path: dynamic events bump
integer counters; static power is integrated piecewise — the network
notifies the accountant only when a router changes power state, and the
accountant multiplies elapsed cycles by the current population counts.

A *measurement window* supports warmup: ``reset_window`` zeroes the event
counters and restarts static integration, so reported energies/powers
cover only the measured phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PowerConfig


@dataclass
class EnergyReport:
    """Energy totals over the measurement window."""

    cycles: int
    static_j: float
    dynamic_j: float
    gating_j: float

    @property
    def total_j(self) -> float:
        return self.static_j + self.dynamic_j + self.gating_j

    def power_w(self, cycle_time_s: float) -> dict[str, float]:
        t = max(self.cycles, 1) * cycle_time_s
        return {
            "static": self.static_j / t,
            "dynamic": (self.dynamic_j + self.gating_j) / t,
            "total": self.total_j / t,
        }


class EnergyAccountant:
    """Tracks dynamic events and integrates static power over time."""

    def __init__(self, pcfg: PowerConfig, *, num_links: int,
                 num_routers: int) -> None:
        self.pcfg = pcfg
        self.num_links = num_links
        self.num_routers = num_routers
        #: population counts by power state class
        self.n_on = num_routers
        self.n_flov_sleep = 0
        self.n_rp_sleep = 0
        self._last_sync = 0
        self._window_start = 0
        self._static_j = 0.0
        self.reset_window(0)

    # -- static integration ----------------------------------------------------

    def _static_power_now(self) -> float:
        p = self.pcfg
        return (self.n_on * p.router_static_w
                + self.n_flov_sleep * p.flov_sleep_static_w
                + self.n_rp_sleep * p.rp_sleep_static_w
                + self.num_links * p.link_static_w)

    def sync(self, now: int) -> None:
        """Integrate static energy up to cycle ``now`` with current counts."""
        dt = now - self._last_sync
        if dt > 0:
            self._static_j += dt * self.pcfg.cycle_time_s * self._static_power_now()
            self._last_sync = now

    def note_transition(self, now: int, *, frm: str, to: str) -> None:
        """Record one router moving between state classes
        ('on' | 'flov_sleep' | 'rp_sleep'). Charges the gating overhead."""
        self.sync(now)
        for name, delta in ((frm, -1), (to, +1)):
            attr = f"n_{name}"
            setattr(self, attr, getattr(self, attr) + delta)
        if self.n_on < 0 or self.n_flov_sleep < 0 or self.n_rp_sleep < 0:
            raise RuntimeError("power-state population went negative")
        self.gating_events += 1

    # -- dynamic events ----------------------------------------------------------

    def on_buffer_write(self) -> None:
        self.buffer_writes += 1

    def on_buffer_read(self) -> None:
        self.buffer_reads += 1

    def on_xbar(self) -> None:
        self.xbar_traversals += 1

    def on_arbitration(self) -> None:
        self.arbitrations += 1

    def on_link_traversal(self) -> None:
        self.link_traversals += 1

    def on_flov_latch(self) -> None:
        self.flov_latches += 1

    def on_credit_relay(self) -> None:
        self.credit_relays += 1

    # The per-flit datapath (``Router._switch_allocate``'s traversal and
    # ``Router.deliver_flit``'s buffer write) bumps buffer_reads /
    # xbar_traversals / link_traversals / buffer_writes directly.

    def on_flov_hop(self, flits: int = 1) -> None:
        """``flits`` fly-over latch-and-forward hops (a whole packet on
        NoRD's bypass ring moves all its flits in one call)."""
        self.flov_latches += flits
        self.link_traversals += flits

    def on_handshake(self, hops: int = 1) -> None:
        self.handshake_hops += hops

    def counters(self) -> dict[str, int]:
        """Snapshot of the dynamic event counters (observability hook:
        the :class:`~repro.obs.sampler.NetworkSampler` mirrors these at
        its sampling cadence instead of instrumenting the hot path)."""
        return {
            "buffer_writes": self.buffer_writes,
            "buffer_reads": self.buffer_reads,
            "xbar_traversals": self.xbar_traversals,
            "arbitrations": self.arbitrations,
            "link_traversals": self.link_traversals,
            "flov_latches": self.flov_latches,
            "credit_relays": self.credit_relays,
            "handshake_hops": self.handshake_hops,
            "gating_events": self.gating_events,
        }

    # -- reporting ----------------------------------------------------------------

    def reset_window(self, now: int) -> None:
        """Start a fresh measurement window at cycle ``now``."""
        # flush static integration, then zero the window
        self.sync(now)
        self._window_start = now
        self._static_j = 0.0
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.xbar_traversals = 0
        self.arbitrations = 0
        self.link_traversals = 0
        self.flov_latches = 0
        self.credit_relays = 0
        self.handshake_hops = 0
        self.gating_events = 0

    @property
    def dynamic_j(self) -> float:
        p = self.pcfg
        return (self.buffer_writes * p.buffer_write_j
                + self.buffer_reads * p.buffer_read_j
                + self.xbar_traversals * p.xbar_j
                + self.arbitrations * p.arbiter_j
                + self.link_traversals * p.link_j
                + self.flov_latches * p.flov_latch_j
                + self.credit_relays * p.credit_relay_j
                + self.handshake_hops * p.handshake_j)

    def report(self, now: int) -> EnergyReport:
        """Energy totals for the window ending at cycle ``now``."""
        self.sync(now)
        return EnergyReport(
            cycles=now - self._window_start,
            static_j=self._static_j,
            dynamic_j=self.dynamic_j,
            gating_j=self.gating_events * self.pcfg.gating_overhead_j,
        )

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "n_on": self.n_on,
            "n_flov_sleep": self.n_flov_sleep,
            "n_rp_sleep": self.n_rp_sleep,
            "last_sync": self._last_sync,
            "window_start": self._window_start,
            "static_j": self._static_j,
            "counters": self.counters(),
        }

    def restore_state(self, data: dict) -> None:
        self.n_on = data["n_on"]
        self.n_flov_sleep = data["n_flov_sleep"]
        self.n_rp_sleep = data["n_rp_sleep"]
        self._last_sync = data["last_sync"]
        self._window_start = data["window_start"]
        self._static_j = data["static_j"]
        for name, value in data["counters"].items():
            setattr(self, name, value)
