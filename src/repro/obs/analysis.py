"""Trace analytics: journey reconstruction, attribution, heat reports.

PR 3 gave the simulator a cycle-accurate event stream; this module
*interprets* it.  Four analyses, each consuming the plain
:class:`~repro.obs.events.TraceEvent` list a :class:`~repro.obs.Tracer`
(or :func:`~repro.obs.load_jsonl`) produces:

* :func:`reconstruct_journeys` — joins ``inject`` / ``hop`` /
  ``flov_latch`` / ``escape`` / ``eject`` events by packet id into
  per-packet :class:`Journey` records: the ordered node path, per-segment
  cycle deltas, fly-over vs full-pipeline hop counts, and escape entry.
* :func:`attribute_latency` — decomposes the average end-to-end packet
  latency into additive components (router pipeline, link, serialization,
  source queueing, fly-over latch, escape contention, in-network
  contention) that reconcile *exactly* with the
  :class:`~repro.noc.stats.StatsCollector` aggregate computed during the
  run (the components are derived from the same ground truth the
  collector accumulated, so their sum equals ``avg_latency`` to float
  rounding).
* :func:`congestion_report` — per-router and per-link traffic heat
  (rendered as ASCII heat grids via :mod:`repro.harness.ascii_plot`) and
  top-K hotspot tables, optionally cross-referenced with sampled metrics
  rows from :func:`~repro.obs.load_metrics_csv`.
* :func:`handshake_report` — drain-duration / wakeup-latency / abort
  distributions and per-router gating timelines from the ``power`` /
  ``psr`` / ``hs_*`` control-plane events.

:func:`analyze_trace` bundles all four into an :class:`AnalysisReport`
with a stable JSON schema (:func:`validate_report`) and human-readable
rendering — the engine behind ``repro analyze``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .events import TraceEvent

#: JSON schema version of :meth:`AnalysisReport.as_dict`
REPORT_SCHEMA = 1

#: event kinds that place a packet's head flit at a node
MOVE_KINDS = ("inject", "hop", "flov_latch")


# -- journeys -----------------------------------------------------------------


@dataclass(frozen=True)
class JourneyHop:
    """One head-flit arrival: the packet's head reached ``node`` at
    ``cycle`` via ``kind`` (``inject`` = entered the network at the
    source NI, ``hop`` = buffered at a powered router, ``flov_latch`` =
    flew over a power-gated router's latch)."""

    cycle: int
    node: int
    kind: str


@dataclass
class Journey:
    """Everything one packet did, reconstructed from the event stream."""

    pid: int
    src: int
    dest: int
    size: int
    vnet: int
    #: packet creation cycle (latency reference; = entered source queue)
    create_cycle: int
    #: cycle the head entered the network (-1 for NI loopback packets)
    inject_cycle: int
    #: cycle of the ``eject`` event (tail leaves the NI at ``+1``)
    eject_cycle: int
    #: end-to-end latency (creation to tail ejection, incl. queueing)
    latency: int
    #: ordered head-flit arrivals, source NI first
    hops: tuple[JourneyHop, ...] = ()
    #: cycle the packet escalated into the escape sub-network (-1: never)
    escape_cycle: int = -1

    @property
    def loopback(self) -> bool:
        """NI loopback (src == dest): never entered the network."""
        return self.src == self.dest

    @property
    def escaped(self) -> bool:
        return self.escape_cycle >= 0

    @property
    def router_hops(self) -> int:
        """Powered routers traversed (source NI entry included)."""
        return sum(1 for h in self.hops if h.kind != "flov_latch")

    @property
    def flov_hops(self) -> int:
        """Power-gated routers flown over."""
        return sum(1 for h in self.hops if h.kind == "flov_latch")

    @property
    def link_hops(self) -> int:
        """Link traversals of the head flit (= arrivals after the source
        NI entry; matches ``StatsCollector.link_hops_sum``)."""
        return max(len(self.hops) - 1, 0)

    @property
    def queueing(self) -> int:
        """Cycles spent in the source NI queue before injection."""
        return 0 if self.loopback else self.inject_cycle - self.create_cycle


@dataclass
class JourneySet:
    """Result of :func:`reconstruct_journeys`."""

    journeys: list[Journey]
    #: ejected pids whose ``inject`` event is missing (ring wraparound
    #: dropped the start of their record — raise ``--trace-capacity``)
    orphan_pids: tuple[int, ...]
    #: injected pids never ejected (still in flight when tracing ended)
    in_flight_pids: tuple[int, ...]

    @property
    def ejected(self) -> int:
        return len(self.journeys) + len(self.orphan_pids)

    @property
    def coverage(self) -> float:
        """Fraction of ejected packets with a complete journey."""
        return len(self.journeys) / self.ejected if self.ejected else 1.0

    def measured(self, warmup: int = 0) -> list[Journey]:
        """Journeys the stats collector counted toward its averages.

        Replicates the collector's exact warmup rule: its ``warmup``
        field is 0 until ``begin_measurement`` flips it at the warmup
        boundary, so packets *ejected* before that cycle always counted,
        and afterwards only packets *created* post-warmup do (the
        stragglers created during warmup but ejected after are the only
        exclusions).
        """
        return [j for j in self.journeys
                if j.eject_cycle < warmup or j.create_cycle >= warmup]


def reconstruct_journeys(events: Iterable[TraceEvent]) -> JourneySet:
    """Join the flit-movement event stream into per-packet journeys.

    Relies on the tracer's ordering guarantee (events are emitted in
    simulation order), so per-pid appends reconstruct the path without
    sorting.  Packets whose ``inject`` record was lost to ring
    wraparound are reported as orphans rather than mis-reconstructed.
    """
    moves: dict[int, list[JourneyHop]] = {}
    injects: dict[int, TraceEvent] = {}
    ejects: dict[int, TraceEvent] = {}
    escapes: dict[int, int] = {}
    for ev in events:
        k = ev.kind
        if k == "hop" or k == "flov_latch":
            pid = ev.data[0]
            lst = moves.get(pid)
            if lst is None:
                lst = moves[pid] = []
            lst.append(JourneyHop(ev.cycle, ev.node, k))
        elif k == "inject":
            pid = ev.data[0]
            injects[pid] = ev
            lst = moves.get(pid)
            if lst is None:
                lst = moves[pid] = []
            lst.append(JourneyHop(ev.cycle, ev.node, "inject"))
        elif k == "eject":
            ejects[ev.data[0]] = ev
        elif k == "escape":
            escapes.setdefault(ev.data[0], ev.cycle)

    journeys: list[Journey] = []
    orphans: list[int] = []
    for pid in sorted(ejects):
        ej = ejects[pid]
        _, src, dest, latency = ej.data
        create = ej.cycle + 1 - latency  # eject_time = cycle + 1
        if src == dest:
            # NI loopback: counted by the stats collector but never in
            # the network, so it has no inject/hop events by design
            journeys.append(Journey(pid, src, dest, size=0, vnet=0,
                                    create_cycle=create, inject_cycle=-1,
                                    eject_cycle=ej.cycle, latency=latency))
            continue
        inj = injects.get(pid)
        if inj is None:
            orphans.append(pid)
            continue
        journeys.append(Journey(
            pid, src, dest, size=inj.data[3], vnet=inj.data[4],
            create_cycle=create, inject_cycle=inj.cycle,
            eject_cycle=ej.cycle, latency=latency,
            hops=tuple(moves.get(pid, ())),
            escape_cycle=escapes.get(pid, -1)))
    in_flight = tuple(sorted(set(injects) - set(ejects)))
    return JourneySet(journeys, tuple(orphans), in_flight)


# -- latency attribution -------------------------------------------------------


@dataclass
class LatencyAttribution:
    """Average per-packet latency split into additive components.

    The first five mirror :class:`~repro.noc.stats.LatencyBreakdown`
    (``router`` = powered-router hops x pipeline depth, ``link`` = link
    traversals, ``serialization`` = flits/packet - 1, ``flov`` =
    fly-over latch hops); the collector's opaque ``contention`` bucket
    is split further into ``queueing`` (source-NI wait before
    injection), ``escape`` (blocking accrued by packets that entered the
    escape sub-network) and residual in-network ``contention``.  The
    seven components sum to ``avg_latency`` exactly (no clamping).
    """

    packets: int = 0
    escaped_packets: int = 0
    avg_latency: float = 0.0
    router: float = 0.0
    link: float = 0.0
    serialization: float = 0.0
    queueing: float = 0.0
    flov: float = 0.0
    escape: float = 0.0
    contention: float = 0.0

    #: component names, render order
    COMPONENTS = ("router", "link", "serialization", "queueing", "flov",
                  "escape", "contention")

    @property
    def total(self) -> float:
        return sum(getattr(self, c) for c in self.COMPONENTS)

    def reconcile(self, avg_latency: float) -> float:
        """Relative error of the component sum vs. an externally computed
        average (e.g. ``ExperimentResult.avg_latency``)."""
        if avg_latency == 0.0:
            return abs(self.total)
        return abs(self.total - avg_latency) / avg_latency

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "packets": self.packets,
            "escaped_packets": self.escaped_packets,
            "avg_latency": self.avg_latency,
            "total": self.total,
        }
        for c in self.COMPONENTS:
            out[c] = getattr(self, c)
        return out


def attribute_latency(journeys: JourneySet | Sequence[Journey], *,
                      router_latency: int = 3,
                      warmup: int = 0) -> LatencyAttribution:
    """Decompose average latency over the measured journeys.

    ``warmup`` filters exactly like the stats collector does (see
    :meth:`JourneySet.measured`), so the result reconciles with
    ``ExperimentResult.avg_latency`` of the same run.
    """
    if isinstance(journeys, JourneySet):
        pool = journeys.measured(warmup)
    else:
        pool = [j for j in journeys
                if j.eject_cycle < warmup or j.create_cycle >= warmup]
    att = LatencyAttribution(packets=len(pool))
    if not pool:
        return att
    sums = dict.fromkeys(LatencyAttribution.COMPONENTS, 0.0)
    lat_sum = 0
    for j in pool:
        lat_sum += j.latency
        r = j.router_hops * router_latency
        link = j.link_hops
        ser = max(j.size - 1, 0)
        q = j.queueing
        f = j.flov_hops
        resid = j.latency - r - link - ser - q - f
        sums["router"] += r
        sums["link"] += link
        sums["serialization"] += ser
        sums["queueing"] += q
        sums["flov"] += f
        if j.escaped:
            att.escaped_packets += 1
            sums["escape"] += resid
        else:
            sums["contention"] += resid
    n = len(pool)
    att.avg_latency = lat_sum / n
    for c, v in sums.items():
        setattr(att, c, v / n)
    return att


# -- congestion ---------------------------------------------------------------


def _infer_mesh(events: Sequence[TraceEvent],
                width: int, height: int) -> tuple[int, int]:
    if width > 0 and height > 0:
        return width, height
    n = max((ev.node for ev in events), default=0) + 1
    side = math.isqrt(n)
    if side * side == n:
        return side, side
    return n, 1


@dataclass
class CongestionReport:
    """Per-router / per-link traffic heat plus hotspot tables."""

    width: int
    height: int
    #: head-flit arrivals per node (inject + hop + flov_latch)
    node_heat: dict[int, int] = field(default_factory=dict)
    #: head traversals per directed link ``(from_node, to_node)``
    link_heat: dict[tuple[int, int], int] = field(default_factory=dict)
    #: summary of interesting sampled-metrics columns (may be empty)
    metrics_summary: dict[str, dict[str, float]] = field(default_factory=dict)

    def top_nodes(self, k: int = 8) -> list[tuple[int, int]]:
        return sorted(self.node_heat.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:k]

    def top_links(self, k: int = 8) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.link_heat.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:k]

    def heat_grid(self, title: str = "router traffic heat") -> str:
        from ..harness.ascii_plot import heat_grid
        return heat_grid(title, self.node_heat, self.width, self.height)

    def as_dict(self, top_k: int = 8) -> dict[str, Any]:
        return {
            "width": self.width,
            "height": self.height,
            "node_heat": {str(n): c for n, c in sorted(self.node_heat.items())},
            "top_nodes": [{"node": n, "events": c}
                          for n, c in self.top_nodes(top_k)],
            "top_links": [{"link": f"{a}->{b}", "traversals": c}
                          for (a, b), c in self.top_links(top_k)],
            "metrics": self.metrics_summary,
        }


def _series_summary(rows: Sequence[Mapping[str, float]],
                    column: str) -> dict[str, float] | None:
    values = [row[column] for row in rows if column in row]
    if not values:
        return None
    return {"min": min(values), "max": max(values),
            "mean": sum(values) / len(values), "last": values[-1]}


#: sampled-metrics columns the congestion report summarizes when present
METRIC_COLUMNS = ("fabric.flits", "router.occupancy.busiest",
                  "router.occupancy.mean", "link.utilization.mean",
                  "kernel.active_routers", "power.routers_on",
                  "power.routers_flov_sleep")


def congestion_report(events: Sequence[TraceEvent],
                      metrics_rows: Sequence[Mapping[str, float]] | None = None,
                      *, journeys: JourneySet | None = None,
                      width: int = 0, height: int = 0) -> CongestionReport:
    """Build router/link heat from the movement events (and optionally a
    sampled-metrics time series loaded via
    :func:`~repro.obs.load_metrics_csv`)."""
    w, h = _infer_mesh(events, width, height)
    rep = CongestionReport(width=w, height=h)
    heat = rep.node_heat
    for ev in events:
        if ev.kind in MOVE_KINDS:
            heat[ev.node] = heat.get(ev.node, 0) + 1
    if journeys is None:
        journeys = reconstruct_journeys(events)
    links = rep.link_heat
    for j in journeys.journeys:
        hops = j.hops
        for a, b in zip(hops, hops[1:]):
            key = (a.node, b.node)
            links[key] = links.get(key, 0) + 1
        if hops and hops[-1].node != j.dest:
            # closing traversal into the destination router is implied by
            # the eject (its hop event is the last entry already when the
            # dest router was powered; gated dests cannot eject)
            key = (hops[-1].node, j.dest)
            links[key] = links.get(key, 0) + 1
    if metrics_rows:
        for col in METRIC_COLUMNS:
            s = _series_summary(metrics_rows, col)
            if s is not None:
                rep.metrics_summary[col] = s
    return rep


# -- handshake / gating --------------------------------------------------------


def _dist(values: Sequence[float]) -> dict[str, float]:
    """Compact distribution summary (count/mean/min/max/p50/p95)."""
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0}
    s = sorted(values)
    n = len(s)

    def pct(q: float) -> float:
        return float(s[min(int(q * n), n - 1)])

    return {"count": n, "mean": sum(s) / n, "min": float(s[0]),
            "max": float(s[-1]), "p50": pct(0.50), "p95": pct(0.95)}


@dataclass
class HandshakeReport:
    """Power-gating control-plane digest from ``power``/``hs_*`` events."""

    #: trace horizon used to close open timeline segments (cycles)
    horizon: int = 0
    #: DRAINING -> SLEEP commit durations (cycles)
    drain_durations: list[int] = field(default_factory=list)
    #: SLEEP -> ACTIVE wakeup latencies (cycles)
    wakeup_latencies: list[int] = field(default_factory=list)
    #: abort reasons (DRAINING->ACTIVE and WAKEUP->SLEEP), winner ids
    #: stripped (``lost_arbitration:5`` counts as ``lost_arbitration``)
    aborts: Counter = field(default_factory=Counter)
    #: every FSM transition, keyed ``FRM->TO``
    transitions: Counter = field(default_factory=Counter)
    #: handshake control messages sent, by kind
    messages: Counter = field(default_factory=Counter)
    #: injected faults, by action (``fault`` events; see ``repro.faults``)
    faults: Counter = field(default_factory=Counter)
    #: node -> [(state, start, end)] gating timeline (end exclusive;
    #: final segment closed at :attr:`horizon`)
    timelines: dict[int, list[tuple[str, int, int]]] = field(
        default_factory=dict)

    def drain_stats(self) -> dict[str, float]:
        return _dist(self.drain_durations)

    def wakeup_stats(self) -> dict[str, float]:
        return _dist(self.wakeup_latencies)

    def residency(self, node: int) -> dict[str, float]:
        """Fraction of the horizon ``node`` spent in each power state."""
        segs = self.timelines.get(node, [])
        if not segs or self.horizon <= 0:
            return {}
        out: dict[str, float] = {}
        for state, start, end in segs:
            out[state] = out.get(state, 0.0) + (end - start) / self.horizon
        return out

    def sleep_ranking(self, k: int = 8) -> list[tuple[int, float]]:
        """Routers by SLEEP residency, deepest sleepers first."""
        ranked = [(node, self.residency(node).get("SLEEP", 0.0))
                  for node in self.timelines]
        ranked.sort(key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def as_dict(self, top_k: int = 8) -> dict[str, Any]:
        return {
            "horizon": self.horizon,
            "drain": self.drain_stats(),
            "wakeup": self.wakeup_stats(),
            "aborts": dict(sorted(self.aborts.items())),
            "transitions": dict(sorted(self.transitions.items())),
            "messages": dict(sorted(self.messages.items())),
            "faults": dict(sorted(self.faults.items())),
            "gating_routers": len(self.timelines),
            "sleep_ranking": [{"node": n, "sleep_fraction": round(f, 4)}
                              for n, f in self.sleep_ranking(top_k)],
        }


#: transitions that terminate a handshake attempt unsuccessfully
_ABORT_EDGES = {("DRAINING", "ACTIVE"), ("WAKEUP", "SLEEP")}


def handshake_report(events: Sequence[TraceEvent]) -> HandshakeReport:
    """Digest the control-plane stream into a :class:`HandshakeReport`.

    Drain durations are measured ``ACTIVE->DRAINING`` start to
    ``DRAINING->SLEEP`` commit, wakeup latencies ``SLEEP->WAKEUP`` start
    to ``WAKEUP->ACTIVE`` commit — bit-identical to the histograms the
    handshake controller pushes into an attached metrics registry, which
    the test suite cross-checks.
    """
    rep = HandshakeReport()
    horizon = 0
    drain_start: dict[int, int] = {}
    wake_start: dict[int, int] = {}
    open_seg: dict[int, tuple[str, int]] = {}
    for ev in events:
        if ev.cycle > horizon:
            horizon = ev.cycle
        k = ev.kind
        if k == "hs_send":
            rep.messages[ev.data[0]] += 1
            continue
        if k == "fault":
            rep.faults[ev.data[0]] += 1
            continue
        if k != "power":
            continue
        frm, to, reason = ev.data[0], ev.data[1], ev.data[2]
        node = ev.node
        rep.transitions[f"{frm}->{to}"] += 1
        # timeline bookkeeping (first transition opens the frm state at 0)
        prev = open_seg.get(node)
        if prev is None:
            if ev.cycle > 0:
                rep.timelines.setdefault(node, []).append(
                    (frm, 0, ev.cycle))
            else:
                rep.timelines.setdefault(node, [])
        else:
            state, start = prev
            rep.timelines.setdefault(node, []).append(
                (state, start, ev.cycle))
        open_seg[node] = (to, ev.cycle)
        # handshake outcome bookkeeping
        if frm == "ACTIVE" and to == "DRAINING":
            drain_start[node] = ev.cycle
        elif frm == "DRAINING" and to == "SLEEP":
            start = drain_start.pop(node, None)
            if start is not None:
                rep.drain_durations.append(ev.cycle - start)
        elif frm == "SLEEP" and to == "WAKEUP":
            wake_start[node] = ev.cycle
        elif frm == "WAKEUP" and to == "ACTIVE":
            start = wake_start.pop(node, None)
            if start is not None:
                rep.wakeup_latencies.append(ev.cycle - start)
        if (frm, to) in _ABORT_EDGES:
            rep.aborts[reason.split(":", 1)[0]] += 1
            drain_start.pop(node, None)
            wake_start.pop(node, None)
    rep.horizon = horizon + 1
    for node, (state, start) in open_seg.items():
        rep.timelines.setdefault(node, []).append(
            (state, start, rep.horizon))
    return rep


# -- full report ---------------------------------------------------------------


@dataclass
class AnalysisReport:
    """Everything ``repro analyze`` derives from one trace."""

    events: int
    horizon: int
    warmup: int
    router_latency: int
    journeys: JourneySet
    attribution: LatencyAttribution
    congestion: CongestionReport
    handshake: HandshakeReport

    def as_dict(self, top_k: int = 8) -> dict[str, Any]:
        js = self.journeys
        return {
            "schema": REPORT_SCHEMA,
            "events": self.events,
            "horizon": self.horizon,
            "warmup": self.warmup,
            "router_latency": self.router_latency,
            "journeys": {
                "complete": len(js.journeys),
                "orphans": len(js.orphan_pids),
                "in_flight": len(js.in_flight_pids),
                "coverage": js.coverage,
                "measured": len(js.measured(self.warmup)),
            },
            "attribution": self.attribution.as_dict(),
            "congestion": self.congestion.as_dict(top_k),
            "handshake": self.handshake.as_dict(top_k),
        }

    # -- rendering ------------------------------------------------------------

    def render(self, *, markdown: bool = False, top_k: int = 8) -> str:
        from ..harness.ascii_plot import bar_chart, sparkline

        att = self.attribution
        js = self.journeys
        hs = self.handshake
        h = (lambda s: f"## {s}") if markdown else (lambda s: f"== {s} ==")
        fence = "```" if markdown else ""
        lines: list[str] = []
        title = (f"Trace analysis: {self.events} events over "
                 f"{self.horizon} cycles")
        lines.append(f"# {title}" if markdown else title)
        lines.append("")

        lines.append(h(f"Journeys ({len(js.journeys)} reconstructed)"))
        lines.append(f"ejected packets      {js.ejected}")
        lines.append(f"complete journeys    {len(js.journeys)} "
                     f"(coverage {js.coverage:.1%})")
        lines.append(f"orphaned ejects      {len(js.orphan_pids)}"
                     + ("  <- ring wraparound: raise --trace-capacity"
                        if js.orphan_pids else ""))
        lines.append(f"still in flight      {len(js.in_flight_pids)}")
        lines.append(f"measured (post-warmup) {att.packets} "
                     f"({att.escaped_packets} escaped)")
        lines.append("")

        lines.append(h("Latency attribution (cycles/packet)"))
        if att.packets:
            if fence:
                lines.append(fence)
            lines.append(bar_chart(
                f"avg latency {att.avg_latency:.2f} =",
                {c: getattr(att, c) for c in att.COMPONENTS}))
            if fence:
                lines.append(fence)
            lines.append(f"component sum {att.total:.4f}  "
                         f"(reconciles to {att.reconcile(att.avg_latency):.2e}"
                         " rel. error)")
        else:
            lines.append("no measured packets in the trace window")
        lines.append("")

        lines.append(h("Congestion"))
        if fence:
            lines.append(fence)
        lines.append(self.congestion.heat_grid())
        if fence:
            lines.append(fence)
        lines.append("")
        lines.append(_table(
            ["router", "head-flit events"],
            [[str(n), str(c)] for n, c in self.congestion.top_nodes(top_k)],
            markdown))
        lines.append("")
        lines.append(_table(
            ["link", "head traversals"],
            [[f"{a}->{b}", str(c)]
             for (a, b), c in self.congestion.top_links(top_k)],
            markdown))
        for col, s in self.congestion.metrics_summary.items():
            lines.append(f"{col:<28} min {s['min']:.1f}  mean {s['mean']:.1f}"
                         f"  max {s['max']:.1f}  last {s['last']:.1f}")
        lines.append("")

        lines.append(h("Handshakes & gating"))
        d, w = hs.drain_stats(), hs.wakeup_stats()
        lines.append(f"drain duration   n={d['count']:<5} mean {d['mean']:.1f}"
                     f"  p50 {d['p50']:.0f}  p95 {d['p95']:.0f}"
                     f"  max {d['max']:.0f}")
        lines.append(f"wakeup latency   n={w['count']:<5} mean {w['mean']:.1f}"
                     f"  p50 {w['p50']:.0f}  p95 {w['p95']:.0f}"
                     f"  max {w['max']:.0f}")
        if hs.aborts:
            ab = ", ".join(f"{k}={v}" for k, v in sorted(hs.aborts.items()))
            lines.append(f"aborted handshakes: {ab}")
        if hs.messages:
            ms = ", ".join(f"{k}={v}" for k, v in sorted(hs.messages.items()))
            lines.append(f"control messages: {ms}")
        if hs.faults:
            fs = ", ".join(f"{k}={v}" for k, v in sorted(hs.faults.items()))
            lines.append(f"injected faults: {fs}")
        ranking = hs.sleep_ranking(top_k)
        if ranking:
            lines.append("")
            lines.append(_table(
                ["router", "sleep residency", "timeline"],
                [[str(n), f"{f:.1%}", _timeline_spark(hs, n, sparkline)]
                 for n, f in ranking],
                markdown))
        return "\n".join(lines)


def _table(headers: list[str], rows: list[list[str]],
           markdown: bool) -> str:
    if not rows:
        return "(none)"
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(headers)]
    if markdown:
        out = ["| " + " | ".join(headers) + " |",
               "|" + "|".join("---" for _ in headers) + "|"]
        out += ["| " + " | ".join(r) + " |" for r in rows]
        return "\n".join(out)
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(out)


#: power-state ordinals used to sparkline a gating timeline
_STATE_LEVEL = {"ACTIVE": 0.0, "DRAINING": 1.0, "WAKEUP": 2.0, "SLEEP": 3.0}


def _timeline_spark(hs: HandshakeReport, node: int, sparkline,
                    buckets: int = 24) -> str:
    """Sample a router's gating timeline into a sparkline (deep = asleep)."""
    segs = hs.timelines.get(node)
    if not segs or hs.horizon <= 0:
        return ""
    values = []
    for i in range(buckets):
        t = (i + 0.5) * hs.horizon / buckets
        level = 0.0
        for state, start, end in segs:
            if start <= t < end:
                level = _STATE_LEVEL.get(state, 0.0)
                break
        values.append(level)
    return sparkline(values)


def analyze_trace(events: Sequence[TraceEvent],
                  metrics_rows: Sequence[Mapping[str, float]] | None = None,
                  *, router_latency: int = 3, warmup: int = 0,
                  width: int = 0, height: int = 0) -> AnalysisReport:
    """Run every analysis over one event stream (the ``repro analyze``
    engine).  ``warmup`` and ``router_latency`` must match the traced
    run for the latency attribution to reconcile with its
    ``ExperimentResult``."""
    journeys = reconstruct_journeys(events)
    attribution = attribute_latency(journeys, router_latency=router_latency,
                                    warmup=warmup)
    congestion = congestion_report(events, metrics_rows, journeys=journeys,
                                   width=width, height=height)
    handshake = handshake_report(events)
    horizon = (max(ev.cycle for ev in events) + 1) if events else 0
    return AnalysisReport(events=len(events), horizon=horizon,
                          warmup=warmup, router_latency=router_latency,
                          journeys=journeys, attribution=attribution,
                          congestion=congestion, handshake=handshake)


# -- report schema validation --------------------------------------------------

#: required keys per top-level section of the JSON report
_REPORT_KEYS: dict[str, tuple[str, ...]] = {
    "journeys": ("complete", "orphans", "in_flight", "coverage", "measured"),
    "attribution": ("packets", "avg_latency", "total")
    + LatencyAttribution.COMPONENTS,
    "congestion": ("width", "height", "node_heat", "top_nodes", "top_links"),
    "handshake": ("horizon", "drain", "wakeup", "aborts", "transitions",
                  "messages", "faults", "gating_routers", "sleep_ranking"),
}


def validate_report(doc: Mapping[str, Any]) -> list[str]:
    """Schema check for :meth:`AnalysisReport.as_dict` output; returns
    problem strings (empty = valid).  Used by tests and the CI
    trace-smoke step."""
    problems: list[str] = []
    if doc.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema != {REPORT_SCHEMA}: {doc.get('schema')!r}")
    for key in ("events", "horizon", "warmup", "router_latency"):
        if not isinstance(doc.get(key), int):
            problems.append(f"{key} missing or not an int")
    for section, keys in _REPORT_KEYS.items():
        sec = doc.get(section)
        if not isinstance(sec, Mapping):
            problems.append(f"{section} missing or not an object")
            continue
        for k in keys:
            if k not in sec:
                problems.append(f"{section}.{k} missing")
    att = doc.get("attribution")
    if isinstance(att, Mapping) and all(
            isinstance(att.get(k), (int, float))
            for k in ("total", "avg_latency")):
        total, avg = att["total"], att["avg_latency"]
        if abs(total - avg) > max(1e-6, 5e-3 * abs(avg)):
            problems.append(
                f"attribution does not reconcile: sum {total} vs "
                f"avg_latency {avg}")
    return problems
