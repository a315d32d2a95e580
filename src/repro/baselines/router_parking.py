"""Router Parking (Samih et al., HPCA 2013) — the paper's main baseline.

A centralized Fabric Manager (FM) reacts to core power-gating events:

* **Phase I (reconfiguration):** all new injections stall network-wide;
  the FM selects the set of routers to park (attached core gated, network
  stays connected), computes fresh up*/down* routing tables for the
  remaining topology, and distributes them. The paper measures this
  phase at >700 cycles; we model it as ``cfg.rp_reconfig_latency`` plus
  waiting for in-flight packets to drain.
* **Steady state:** parked routers are fully off (no fly-over path);
  packets follow the distributed tables through powered routers only.

Two parking policies:

* ``aggressive`` — park every candidate whose removal keeps the
  on-subgraph connected (used for the workload-independent static-power
  comparison, Figure 9).
* ``adaptive`` — additionally bounds the average active-pair detour to
  ``(1 + detour_alpha) x`` the all-on average, trading static power for
  latency as the RP paper describes (the behavior visible in Figure 6 at
  high injection rates).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.power_fsm import PowerState
from ..core.routing import HOLD, ROUTE_TO, Decision
from ..noc.mechanism import Mechanism
from ..noc.types import Direction, Flit
from .updown import (average_distance, build_tables, is_connected,
                     mesh_adjacency)

if TYPE_CHECKING:  # pragma: no cover
    from ..noc.network import Network
    from ..noc.router import Router


class RouterParkingMechanism(Mechanism):
    name = "rp"

    #: detour bound for the adaptive policy
    detour_alpha: float = 0.30

    def __init__(self, net: "Network") -> None:
        super().__init__(net)
        self.tables: dict[int, dict[int, Direction]] = {}
        self.parked: frozenset[int] = frozenset()
        self.protected: frozenset[int] = frozenset()
        self._pending: frozenset[int] | None = None
        self._stall_until = 0
        self.reconfig_count = 0
        self.reconfig_log: list[tuple[int, int]] = []  # (start, apply) cycles

    # -- lifecycle -----------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        # all routers on; the first schedule (set_gating, at cycle 0)
        # computes the real tables, so the all-on table is left empty
        # and built only if a flit is routed, or the state snapshotted,
        # before any schedule arrives
        self._park(0, frozenset())

    def on_schedule_change(self, now: int, gated: frozenset[int]) -> None:
        self._pending = gated
        self._stall_until = now + self.cfg.rp_reconfig_latency
        if now == 0:
            # initial configuration: nothing in flight, apply immediately
            self._apply(now, gated)
            self._pending = None
            return
        self.net.injection_frozen = True
        self.reconfig_count += 1
        self._reconfig_start = now

    def step(self, now: int) -> None:
        if self._pending is None:
            return
        if now < self._stall_until or not self.net.network_drained():
            return
        self._apply(now, self._pending)
        self._pending = None
        self.net.injection_frozen = False
        self.reconfig_log.append((self._reconfig_start, now))

    # -- fabric manager ----------------------------------------------------------

    def choose_parked(self, gated: frozenset[int]) -> frozenset[int]:
        """Greedy connectivity-preserving parking decision."""
        cfg = self.cfg
        all_nodes = frozenset(range(cfg.num_routers))
        endpoints = (all_nodes - gated) | self.protected
        if not endpoints:
            endpoints = frozenset({0})
        candidates = sorted(gated - self.protected)
        if not candidates:
            return frozenset()
        # one full-mesh adjacency; each trial walks only its on-nodes
        adj = mesh_adjacency(cfg, all_nodes)
        parked: set[int] = set()
        policy = cfg.rp_policy
        if policy == "adaptive":
            base_avg = average_distance(cfg, all_nodes, endpoints, adj=adj)
            limit = (1.0 + self.detour_alpha) * base_avg
        for cand in candidates:
            trial_on = all_nodes - parked - {cand}
            if not endpoints <= trial_on:
                continue
            if not is_connected(adj, endpoints, trial_on):
                continue
            if policy == "adaptive":
                avg = average_distance(cfg, trial_on, endpoints, adj=adj)
                if avg > limit:
                    continue
            parked.add(cand)
        return frozenset(parked)

    def _build_tables(self, parked: frozenset[int]) -> None:
        """Up*/down* tables over the routers not in ``parked``."""
        on_nodes = frozenset(range(self.cfg.num_routers)) - parked
        self.tables = build_tables(self.cfg, on_nodes, min(on_nodes))

    def _apply(self, now: int, gated: frozenset[int]) -> None:
        new_parked = self.choose_parked(gated)
        self._build_tables(new_parked)
        self._park(now, new_parked)

    def _park(self, now: int, new_parked: frozenset[int]) -> None:
        """Power routers down/up to ``new_parked`` and mirror the
        decision into every router's PSRs."""
        cfg = self.cfg
        acct = self.net.accountant
        tr = self.net._tracer
        for node in new_parked - self.parked:
            r = self.net.routers[node]
            r.state = PowerState.SLEEP
            r.bypass_enabled = False
            acct.note_transition(now, frm="on", to="rp_sleep")
            if tr is not None:
                tr.emit(now, "power", node, "ACTIVE", "SLEEP", "rp_park", ())
        for node in self.parked - new_parked:
            r = self.net.routers[node]
            r.state = PowerState.ACTIVE
            r.bypass_enabled = True
            if tr is not None:
                tr.emit(now, "power", node, "SLEEP", "ACTIVE", "rp_unpark",
                        ())
            # network is drained: buffers empty, credit state is pristine
            for d in r.mesh_ports:
                r.credits[d] = [cfg.buffer_depth] * cfg.total_vcs
                r.out_owner[d] = [None] * cfg.total_vcs
            acct.note_transition(now, frm="rp_sleep", to="on")
        self.parked = new_parked
        # queued packets addressed to parked nodes would never have been
        # generated (their threads migrated away): drop them
        if new_parked:
            for r in self.net.routers:
                r.ni.drop_queued_to(new_parked)
        # symmetrically, a parked node's own NI backlog belongs to
        # threads that migrated away — whether the node was parked just
        # now or stayed parked while the OS schedule flip-flopped its
        # core between reconfigurations: drop it
        for node in new_parked:
            r = self.net.routers[node]
            stranded = r.ni.take_pending_packets()
            if stranded:
                self.net.stats.packets_dropped += len(stranded)
        # neighbors' PSRs mirror the FM's global view (distributed with
        # the routing tables during Phase I)
        for r in self.net.routers:
            for d in r.mesh_ports:
                nb = r.neighbor_id(d)
                r.psr[d] = (PowerState.SLEEP if nb in new_parked
                            else PowerState.ACTIVE)
            r._psr_epoch += 1

    # -- data plane -----------------------------------------------------------

    def route(self, router: "Router", head: Flit, in_dir: Direction,
              now: int) -> Decision:
        dest = head.packet.dest
        table = self.tables.get(router.node)
        if table is None:
            if not self.tables:  # no schedule yet: all-on, built now
                self._build_tables(self.parked)
                return self.route(router, head, in_dir, now)
            raise RuntimeError(f"parked router {router.node} routing a flit")
        d = table.get(dest)
        if d is None:
            # destination currently parked (possible transiently in full
            # system runs): hold until the next reconfiguration
            return HOLD
        return ROUTE_TO[d]

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self, pkts) -> dict:
        if not self.tables:
            self._build_tables(self.parked)
        return {
            "tables": {str(n): {str(dst): int(d) for dst, d in t.items()}
                       for n, t in self.tables.items()},
            "parked": sorted(self.parked),
            "protected": sorted(self.protected),
            "pending": (None if self._pending is None
                        else sorted(self._pending)),
            "stall_until": self._stall_until,
            "reconfig_count": self.reconfig_count,
            "reconfig_log": [list(t) for t in self.reconfig_log],
            # only exists once a mid-run reconfiguration has started
            "reconfig_start": getattr(self, "_reconfig_start", None),
        }

    def restore_state(self, data: dict, pkts) -> None:
        self.tables = {int(n): {int(dst): Direction(d)
                                for dst, d in t.items()}
                       for n, t in data["tables"].items()}
        self.parked = frozenset(data["parked"])
        self.protected = frozenset(data["protected"])
        self._pending = (None if data["pending"] is None
                         else frozenset(data["pending"]))
        self._stall_until = data["stall_until"]
        self.reconfig_count = data["reconfig_count"]
        self.reconfig_log = [tuple(t) for t in data["reconfig_log"]]
        if data["reconfig_start"] is not None:
            self._reconfig_start = data["reconfig_start"]
