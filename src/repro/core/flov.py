"""The FLOV mechanisms (rFLOV and gFLOV) as pluggable network mechanisms.

Glues together the partition-based dynamic routing (``repro.core.routing``)
and the distributed handshake protocol (``repro.core.handshake``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..noc.mechanism import Mechanism
from ..noc.types import Direction, Flit, Packet
from .handshake import HandshakeController
from .routing import Decision, escape_route, flov_route

if TYPE_CHECKING:  # pragma: no cover
    from ..noc.network import Network
    from ..noc.router import Router


class FlovMechanism(Mechanism):
    """Common machinery for both FLOV variants."""

    generalized: bool = False
    uses_escape = True

    def __init__(self, net: "Network") -> None:
        super().__init__(net)
        self.hsc = HandshakeController(net, generalized=self.generalized)
        cfg = self.cfg
        self._regular_vcs = {
            v: [cfg.vc_index(v, i) for i in range(cfg.num_vcs)]
            for v in range(cfg.num_vnets)}
        self._escape_vcs = {
            v: [cfg.escape_vc_of(v)] for v in range(cfg.num_vnets)}

    def setup(self) -> None:
        # FLOV reserves the escape VC: injection only into regular VCs.
        for r in self.net.routers:
            r.injectable_vcs = self.cfg.num_vcs
            for d in r.mesh_ports:
                r.logical[d] = r.neighbor_id(d)

    def step(self, now: int) -> None:
        self.hsc.step(now)

    def route(self, router: "Router", head: Flit, in_dir: Direction,
              now: int) -> Decision:
        pkt = head.packet
        dx, dy = self.cfg.node_xy(pkt.dest)
        if pkt.escaped:
            return escape_route(router, dx, dy, pkt.dest)
        return flov_route(router, dx, dy, pkt.dest, in_dir)

    def allowed_vcs(self, router: "Router", pkt: Packet) -> list[int]:
        if pkt.escaped:
            return self._escape_vcs[pkt.vnet]
        return self._regular_vcs[pkt.vnet]

    def request_wakeup(self, router: "Router", target: int, now: int) -> None:
        self.hsc.request_wakeup(router, target, now)

    def on_local_inject_blocked(self, router: "Router") -> None:
        # wake our own router to send the bank's outbound message
        self.hsc.request_wakeup(router, router.node, self.net.cycle)

    def on_schedule_change(self, now: int, gated: frozenset[int]) -> None:
        self.hsc.on_schedule_change(now, gated)

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self, pkts) -> dict:
        return {"hsc": self.hsc.snapshot_state()}

    def restore_state(self, data: dict, pkts) -> None:
        self.hsc.restore_state(data["hsc"])


class RFlovMechanism(FlovMechanism):
    """Restricted FLOV: no two adjacent routers in a row/column may be
    power-gated at the same time."""

    name = "rflov"
    generalized = False


class GFlovMechanism(FlovMechanism):
    """Generalized FLOV: arbitrary runs of consecutive sleeping routers;
    handshakes between logical neighbors with signal/credit relaying."""

    name = "gflov"
    generalized = True
