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

from ..config import TECH, NoCConfig
from .dsent import link_static_w, router_breakdown


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
    """Tracks dynamic events and integrates static power over time.

    The configuration is priced once, here, from :data:`~repro.config.TECH`:
    static watts per power-state class and the flit-width scale of the
    datapath event energies.
    """

    def __init__(self, cfg: NoCConfig) -> None:
        bd = router_breakdown(cfg)
        self._scale = cfg.flit_width_bytes / 16.0
        #: static watts of one router in each power-state class, one link
        self.router_w = bd.baseline_total
        self.flov_sleep_w = bd.flov_overhead
        self.rp_sleep_w = (TECH.rp_sleep_w * self._scale
                           * (cfg.buffer_depth / 6.0))
        self.link_w = link_static_w(cfg)
        #: unidirectional mesh links
        self.num_links = 2 * ((cfg.width - 1) * cfg.height
                              + (cfg.height - 1) * cfg.width)
        self.num_routers = cfg.num_routers
        #: population counts by power state class
        self.n_on = self.num_routers
        self.n_flov_sleep = 0
        self.n_rp_sleep = 0
        self._last_sync = 0
        self._window_start = 0
        self._static_j = 0.0
        self.reset_window(0)

    # -- static integration ----------------------------------------------------

    def _static_power_now(self) -> float:
        return (self.n_on * self.router_w
                + self.n_flov_sleep * self.flov_sleep_w
                + self.n_rp_sleep * self.rp_sleep_w
                + self.num_links * self.link_w)

    def sync(self, now: int) -> None:
        """Integrate static energy up to cycle ``now`` with current counts."""
        dt = now - self._last_sync
        if dt > 0:
            self._static_j += dt * TECH.cycle_time_s * self._static_power_now()
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

    def on_credit_relay(self) -> None:
        self.credit_relays += 1

    # The per-flit datapath (``Router._switch_allocate``'s traversal,
    # ``Router.deliver_flit``'s and the NI's buffer writes) and the VC
    # allocator bump buffer_reads / xbar_traversals / link_traversals /
    # buffer_writes / arbitrations directly.

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
        # datapath energies scale with flit width; control ones do not
        t, s = TECH, self._scale
        return (self.buffer_writes * (t.buffer_write_j * s)
                + self.buffer_reads * (t.buffer_read_j * s)
                + self.xbar_traversals * (t.xbar_j * s)
                + self.arbitrations * t.arbiter_j
                + self.link_traversals * (t.link_j * s)
                + self.flov_latches * (t.flov_latch_j * s)
                + self.credit_relays * t.credit_relay_j
                + self.handshake_hops * t.handshake_j)

    def report(self, now: int) -> EnergyReport:
        """Energy totals for the window ending at cycle ``now``."""
        self.sync(now)
        return EnergyReport(
            cycles=now - self._window_start,
            static_j=self._static_j,
            dynamic_j=self.dynamic_j,
            gating_j=self.gating_events * TECH.gating_overhead_j,
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
        # exactly the event counters, so a checkpoint cannot re-price a run
        from ..noc.snapshot import require
        counters, names = data["counters"], self.counters().keys()
        require(counters.keys() == names, f"accountant counters "
                f"{sorted(counters)} are not {sorted(names)}")
        for name in names:
            setattr(self, name, counters[name])
