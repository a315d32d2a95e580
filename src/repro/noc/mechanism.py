"""Power-gating mechanism interface and the no-gating baseline.

A *mechanism* bundles everything that differs between the compared
schemes (Baseline, Router Parking, rFLOV, gFLOV):

* the routing function used by powered routers,
* which VCs a packet may be allocated into,
* the control plane (handshakes / fabric manager) stepped once per cycle,
* the reaction to OS core power-gating schedule changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.routing import Decision
from ..noc.types import Direction, Flit, Packet

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network
    from .router import Router


class Mechanism:
    """Base mechanism: no power gating, YX routing."""

    name = "baseline"
    #: whether timed-out packets escalate into the escape sub-network
    uses_escape = False

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.cfg = net.cfg
        # Baseline/RP may inject into every VC (no escape reservation).
        self._all_vcs = {
            v: [self.cfg.vc_index(v, i) for i in range(self.cfg.vcs_per_vnet)]
            for v in range(self.cfg.num_vnets)}
        #: lazily-built flat [node * N + dest] YX decision table (the
        #: baseline routing function is static, so every decision can be
        #: precomputed once instead of re-derived per head per cycle)
        self._yx_table: list[Decision] | None = None

    def setup(self) -> None:
        """Called once after the network is fully wired."""
        for r in self.net.routers:
            r.injectable_vcs = self.cfg.vcs_per_vnet
            for d in r.mesh_ports:
                r.logical[d] = r.neighbor_id(d)

    def step(self, now: int) -> None:
        """Per-cycle control-plane processing."""

    def route(self, router: "Router", head: Flit, in_dir: Direction,
              now: int) -> Decision:
        table = self._yx_table
        if table is None:
            table = self._build_yx_table()
        return table[router.node * self.cfg.num_routers + head.packet.dest]

    def _build_yx_table(self) -> list[Decision]:
        from ..baselines.yx import yx_route
        cfg = self.cfg
        n = cfg.num_routers
        xy = [cfg.node_xy(i) for i in range(n)]
        self._yx_table = table = [
            yx_route(sx, sy, dx, dy)
            for sx, sy in xy for dx, dy in xy]
        return table

    def allowed_vcs(self, router: "Router", pkt: Packet) -> list[int]:
        """Downstream VCs a head flit may be allocated into."""
        return self._all_vcs[pkt.vnet]

    def request_wakeup(self, router: "Router", target: int, now: int) -> None:
        """A router holds a packet for a sleeping destination."""

    def on_local_inject_blocked(self, router: "Router") -> None:
        """The NI queued a packet while its router is power-gated."""

    def on_schedule_change(self, now: int, gated: frozenset[int]) -> None:
        """The OS changed the set of power-gated cores."""

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self, pkts) -> dict:
        """Mechanism-owned mutable state (base: none — all derived)."""
        return {}

    def restore_state(self, data: dict, pkts) -> None:
        pass


class BaselineMechanism(Mechanism):
    """Table I baseline: all routers always on, YX routing."""
