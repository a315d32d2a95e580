"""Simulation statistics: packet latency, throughput, latency breakdown.

The breakdown mirrors Figure 8 of the paper: accumulated router latency
(powered-router hops x pipeline depth), link latency, serialization
latency (flits/packet - 1), FLOV latency (sleeping-router latch hops),
and contention latency (everything else, including source queuing).
"""

from __future__ import annotations

from dataclasses import dataclass

from .types import Packet


@dataclass(frozen=True)
class LatencyWindow:
    """One aggregation window of the latency time series.

    ``partial`` flags a window that the measurement horizon cut short
    (its ``end`` exceeds the last sample's cycle): its average covers
    fewer cycles than the nominal window length, so timeline plots and
    tables should render it tentatively rather than as a full window.
    """

    start: int
    end: int          # exclusive
    avg: float
    count: int
    partial: bool


@dataclass
class LatencyBreakdown:
    """Average per-packet latency split into additive components."""

    router: float = 0.0
    link: float = 0.0
    serialization: float = 0.0
    flov: float = 0.0
    contention: float = 0.0

    @property
    def total(self) -> float:
        return (self.router + self.link + self.serialization
                + self.flov + self.contention)

    def as_dict(self) -> dict[str, float]:
        return {
            "router": self.router,
            "link": self.link,
            "serialization": self.serialization,
            "flov": self.flov,
            "contention": self.contention,
            "total": self.total,
        }


class StatsCollector:
    """Accumulates packet-level statistics during a simulation run.

    ``warmup`` packets ejected before the warmup cycle are counted for
    functional checks but excluded from latency/throughput averages.
    Optionally keeps a time series of (eject_cycle, latency) samples for
    timeline plots (Figure 10).
    """

    def __init__(self, router_latency: int = 3, *, warmup: int = 0,
                 keep_samples: bool = False) -> None:
        self.router_latency = router_latency
        self.warmup = warmup
        self.keep_samples = keep_samples
        self.reset()

    def reset(self) -> None:
        self.packets_injected = 0
        self.packets_ejected = 0
        self.packets_dropped = 0
        self.flits_ejected = 0
        self.measured_packets = 0
        self.latency_sum = 0
        self.network_latency_sum = 0
        self.router_hops_sum = 0
        self.link_hops_sum = 0
        self.flov_hops_sum = 0
        self.escaped_packets = 0
        self.max_latency = 0
        self.samples: list[tuple[int, int]] = []

    # -- SimSnapshot protocol -------------------------------------------------

    _SNAP_FIELDS = ("packets_injected", "packets_ejected", "packets_dropped",
                    "flits_ejected", "measured_packets", "latency_sum",
                    "network_latency_sum", "router_hops_sum", "link_hops_sum",
                    "flov_hops_sum", "escaped_packets", "max_latency",
                    "warmup")

    def snapshot_state(self) -> dict:
        data = {f: getattr(self, f) for f in self._SNAP_FIELDS}
        data["samples"] = [list(s) for s in self.samples]
        return data

    def restore_state(self, data: dict) -> None:
        for f in self._SNAP_FIELDS:
            setattr(self, f, data[f])
        self.samples = [tuple(s) for s in data["samples"]]

    # -- recording -----------------------------------------------------------

    def on_inject(self, pkt: Packet) -> None:
        self.packets_injected += 1

    def on_eject(self, pkt: Packet) -> None:
        self.packets_ejected += 1
        self.flits_ejected += pkt.size
        if pkt.create_time < self.warmup:
            return
        self.measured_packets += 1
        lat = pkt.latency
        self.latency_sum += lat
        self.network_latency_sum += pkt.network_latency
        self.router_hops_sum += pkt.router_hops
        self.link_hops_sum += pkt.link_hops
        self.flov_hops_sum += pkt.flov_hops
        self.escaped_packets += pkt.escaped
        if lat > self.max_latency:
            self.max_latency = lat
        if self.keep_samples:
            self.samples.append((pkt.eject_time, lat))

    # -- summaries -----------------------------------------------------------

    @property
    def avg_latency(self) -> float:
        """Average end-to-end packet latency (cycles), incl. source queuing."""
        if not self.measured_packets:
            return 0.0
        return self.latency_sum / self.measured_packets

    @property
    def avg_network_latency(self) -> float:
        if not self.measured_packets:
            return 0.0
        return self.network_latency_sum / self.measured_packets

    def throughput(self, cycles: int, nodes: int) -> float:
        """Accepted traffic in flits/cycle/node over ``cycles``."""
        if cycles <= 0 or nodes <= 0:
            return 0.0
        return self.flits_ejected / cycles / nodes

    def breakdown(self, packet_size: int) -> LatencyBreakdown:
        """Average latency decomposition (Figure 8 semantics)."""
        n = self.measured_packets
        if not n:
            return LatencyBreakdown()
        router = self.router_hops_sum * self.router_latency / n
        link = self.link_hops_sum / n
        ser = float(packet_size - 1)
        flov = self.flov_hops_sum / n
        contention = self.avg_latency - router - link - ser - flov
        return LatencyBreakdown(router=router, link=link, serialization=ser,
                                flov=flov, contention=max(0.0, contention))

    def latency_windows(self, window: int,
                        end: int | None = None) -> list[LatencyWindow]:
        """Aggregate the latency samples into :class:`LatencyWindow` rows.

        ``end`` is the measurement horizon (exclusive); it defaults to
        the last sample's eject cycle + 1.  Any window whose nominal
        ``end`` exceeds the horizon is flagged ``partial`` so consumers
        can distinguish a genuinely quiet tail window from one that was
        simply cut short.  Requires ``keep_samples``.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not self.keep_samples:
            raise RuntimeError("collector was created without keep_samples")
        buckets: dict[int, list[int]] = {}
        for t, lat in self.samples:
            buckets.setdefault(t // window, []).append(lat)
        if end is None:
            end = max(t for t, _ in self.samples) + 1 if self.samples else 0
        return [LatencyWindow(start=w * window,
                              end=(w + 1) * window,
                              avg=sum(v) / len(v),
                              count=len(v),
                              partial=(w + 1) * window > end)
                for w, v in sorted(buckets.items())]
