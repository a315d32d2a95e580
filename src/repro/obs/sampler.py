"""Cadence-driven sampling of a live :class:`~repro.noc.network.Network`.

A :class:`NetworkSampler` polls the simulator's already-maintained
aggregates on a configurable cycle cadence and feeds them into a
:class:`~repro.obs.metrics.MetricsRegistry`:

* **fabric occupancy** — the O(1) in-fabric flit counter plus a
  per-router buffer-occupancy histogram (and optional per-router
  gauges);
* **per-link utilization** — flits sent per cycle per flit channel over
  the last sampling window, from each channel's monotone ``sent``
  counter (histogram across links + optional per-link gauges);
* **power-state populations** — routers on / FLOV-gated / RP-parked,
  straight from the :class:`~repro.power.accounting.EnergyAccountant`;
* **dynamic-event counters** — buffer writes/reads, crossbar and link
  traversals, FLOV latch hops, credit relays, handshake hops, gating
  events, mirrored from the accountant (no extra hot-path cost: the
  accountant already maintains them);
* **traffic counters** — packets injected/ejected and the active-scan
  population of the activity-driven kernel.

The wakeup-latency and drain-duration histograms are *pushed* by the
handshake controller (they are completion events, not samplable state);
the sampler only owns the polling side.

Overhead contract: when no sampler is attached the kernels pay one
``is not None`` test per cycle; when attached, work happens only every
``every`` cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..noc.network import Network

#: default sampling cadence (cycles)
DEFAULT_EVERY = 200

#: occupancy histogram bounds: per-router buffered-flit counts
OCCUPANCY_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128)

#: link utilization histogram bounds (flits/cycle, <= 1.0 by design)
UTILIZATION_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


class NetworkSampler:
    """Polls a network into a registry every ``every`` cycles."""

    def __init__(self, net: "Network", *, every: int = DEFAULT_EVERY,
                 registry: MetricsRegistry | None = None,
                 per_node: bool = False, per_link: bool = False) -> None:
        if every < 1:
            raise ValueError("sampling cadence must be >= 1 cycle")
        self.net = net
        self.every = every
        self.registry = registry if registry is not None else MetricsRegistry()
        self.per_node = per_node
        self.per_link = per_link
        self._last_cycle = net.cycle
        self._last_sent: dict[str, int] = {}
        self._links: list[tuple[str, object]] = self._index_links(net)
        #: cycle of the most recent sample (-1: none yet); lets
        #: :meth:`close` avoid double-sampling a cadence-aligned horizon
        self._last_sample = -1

    @staticmethod
    def _index_links(net: "Network") -> list[tuple[str, object]]:
        links = []
        for r in net.routers:
            for d, ch in sorted(r.out_flit.items()):
                links.append((f"{r.node}->{r.neighbor_id(d)}", ch))
        return links

    # -- per-cycle hook (called by the kernels when attached) ----------------

    def on_cycle(self, now: int) -> None:
        """Kernel hook: samples when ``now`` hits the cadence."""
        if now % self.every == 0:
            self.sample(now)

    def close(self, now: int) -> bool:
        """Final flush: sample the trailing partial window at ``now``.

        Called by the harness when a run ends on a cycle that is not a
        cadence multiple — without it the last ``now % every`` cycles
        would silently go unsampled (the same bug shape as the horizon
        cut :meth:`StatsCollector.latency_windows` flags as
        ``partial``).  The closing row carries ``partial = 1.0`` in the
        CSV/JSON exports when its window is cadence-incomplete.
        Idempotent; returns True when a row was added.
        """
        if now == self._last_sample:
            return False
        self.sample(now, partial=now % self.every != 0)
        return True

    # -- one sample ----------------------------------------------------------

    def sample(self, now: int, *, partial: bool = False) -> None:
        """Take one sample of the network state at cycle ``now``."""
        net = self.net
        reg = self.registry
        dt = max(now - self._last_cycle, 1)

        # fabric / buffer occupancy
        reg.gauge("fabric.flits").set(net._flits)
        occ = reg.histogram("router.occupancy", OCCUPANCY_BUCKETS)
        busiest = 0
        for r in net.routers:
            occ.observe(r.occupancy)
            if r.occupancy > busiest:
                busiest = r.occupancy
            if self.per_node:
                reg.gauge(f"router.{r.node}.occupancy").set(r.occupancy)
        reg.gauge("router.occupancy.busiest").set(busiest)
        reg.gauge("kernel.active_routers").set(net._active_mask.bit_count())

        # link utilization over the last window
        util = reg.histogram("link.utilization", UTILIZATION_BUCKETS)
        last = self._last_sent
        for name, ch in self._links:
            sent = ch.sent
            u = (sent - last.get(name, 0)) / dt
            last[name] = sent
            util.observe(u)
            if self.per_link:
                reg.gauge(f"link.{name}.utilization").set(u)

        # power-state populations + dynamic event counters (accountant)
        acct = net.accountant
        reg.gauge("power.routers_on").set(acct.n_on)
        reg.gauge("power.routers_flov_sleep").set(acct.n_flov_sleep)
        reg.gauge("power.routers_rp_sleep").set(acct.n_rp_sleep)
        for name, value in acct.counters().items():
            reg.gauge(f"energy.{name}").set(value)

        # traffic totals
        stats = net.stats
        reg.gauge("traffic.packets_injected").set(stats.packets_injected)
        reg.gauge("traffic.packets_ejected").set(stats.packets_ejected)
        reg.gauge("traffic.flits_ejected").set(stats.flits_ejected)

        self._last_cycle = now
        self._last_sample = now
        reg.sample(now, {"partial": 1.0 if partial else 0.0})
