"""Deterministic fault injection for the simulated fabric.

The :class:`FaultInjector` perturbs a running :class:`~repro.noc.network.
Network` in three protocol-relevant ways (following the fault taxonomy
of Roberts et al., arXiv:2108.13148):

* **handshake message faults** — drop, duplicate or delay individual
  control messages of the FLOV handshake (``core/handshake.py``);
* **transient link outages** — kill a directed mesh link (its flit
  channel and the matching credit-return wire) for a bounded number of
  cycles, then revive it.  An outage *stalls* in-flight items rather
  than discarding them: flits have no retransmission layer, so loss
  would trivially (and uninterestingly) break conservation invariants —
  a dead link models a transiently unavailable wire with elastic
  buffering, exactly the recoverable failure the watchdogs must ride
  out;
* **spurious power-FSM resets** — force a mid-transition router back
  through its protocol abort path (drain abort, wakeup abort) or poke a
  sleeping router awake with an unsolicited ``wake_req``.

Scope of the message-fault model (see :data:`FAULTABLE_KINDS` and
:data:`REORDER_SAFE_KINDS`): only the request/grant plane (``drain``,
``drain_done``, ``wakeup``, ``wake_req``) may be *dropped* — every loss
there is ridden out by a watchdog or retry, and every attempt ends with
a reliable terminal broadcast that repairs observer state.  Only the
token-filtered / idempotent kinds (``drain_done``, ``wake_req``) may
additionally be *duplicated or delayed*: a late copy of a ``drain`` or
``wakeup`` request could arrive after its attempt's terminal
abort/commit and re-poison a neighbor's PSR or VC pauses, which no
mechanism in the paper repairs (status wires cannot reorder).  The
terminal broadcasts themselves (``drain_abort``, ``sleep``, ``awake``,
``wake_abort``) are modeled fully reliable: they carry credit
snapshots, pointer splices, PSR repairs and VC unpauses for which the
protocol — correctly, given dedicated point-to-point wires — has no
retry.  Faulting them is not a failure the design claims to survive;
it is a different protocol.

Attachment contract (mirrors ``repro.obs``): the injector is **opt-in**
via :meth:`Network.attach_faults`; every hook site pays exactly one
``is not None`` attribute test when detached, so detached runs are
bit-identical to a build without the fault layer at all.

Determinism: the injector draws from its own ``random.Random(seed)``
and the simulator is single-threaded, so a ``(spec, plan)`` pair replays
the exact same fault schedule every run — a failing soak seed is a
complete reproduction recipe (see ``docs/testing.md``).

Every injected fault is recorded as a typed ``fault`` trace event (when
a tracer is attached) and tallied in :attr:`FaultInjector.counts`, so
``repro analyze`` can attribute protocol disturbances to their causes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.power_fsm import PowerState
from ..noc.types import OPPOSITE

if TYPE_CHECKING:  # pragma: no cover
    from ..core.handshake import Msg
    from ..noc.channel import DelayChannel
    from ..noc.network import Network

#: Handshake message kinds the injector may DROP: the request/grant
#: plane.  Losses are ridden out by the drain watchdog (``drain``,
#: ``drain_done``), the wake watchdog (``wakeup``) and the rate-limited
#: re-send (``wake_req``); every aborted attempt then emits a reliable
#: terminal broadcast that repairs observer PSR/pause state.
FAULTABLE_KINDS: frozenset[str] = frozenset(
    {"drain", "drain_done", "wakeup", "wake_req"})

#: The subset that may additionally be DUPLICATED or DELAYED: a stale
#: ``drain_done`` is discarded by the attempt-token filter and a stray
#: ``wake_req`` is idempotent at every receiver state.  Late copies of
#: the other kinds could outlive their attempt's terminal broadcast and
#: permanently re-poison neighbor state (see module docstring).
REORDER_SAFE_KINDS: frozenset[str] = frozenset({"drain_done", "wake_req"})


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault-rate configuration (picklable, hashable).

    All rates are Bernoulli probabilities; handshake rates are per
    eligible message, link/reset rates are per cycle.
    """

    seed: int = 0
    #: P(drop) per faultable handshake message
    hs_drop: float = 0.0
    #: P(duplicate) per faultable handshake message
    hs_dup: float = 0.0
    #: P(extra delivery delay) per faultable handshake message
    hs_delay: float = 0.0
    #: maximum extra delay in cycles (uniform in [1, hs_delay_max])
    hs_delay_max: int = 8
    #: P(per cycle) of killing one random healthy mesh link
    link_kill: float = 0.0
    #: outage length in cycles
    link_kill_duration: int = 64
    #: cap on simultaneously dead links
    max_dead_links: int = 2
    #: P(per cycle) of forcing one spurious power-FSM reset
    power_reset: float = 0.0
    #: message kinds eligible for drop/dup/delay
    kinds: tuple[str, ...] = tuple(sorted(FAULTABLE_KINDS))

    def __post_init__(self) -> None:
        for name in ("hs_drop", "hs_dup", "hs_delay", "link_kill",
                     "power_reset"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
        if self.hs_delay_max < 1:
            raise ValueError("hs_delay_max must be >= 1")
        if self.link_kill_duration < 1:
            raise ValueError("link_kill_duration must be >= 1")
        unknown = set(self.kinds) - FAULTABLE_KINDS
        if unknown:
            raise ValueError(
                f"unfaultable message kinds {sorted(unknown)}; "
                f"choose from {sorted(FAULTABLE_KINDS)}")

    def any_faults(self) -> bool:
        return bool(self.hs_drop or self.hs_dup or self.hs_delay
                    or self.link_kill or self.power_reset)


@dataclass
class _DeadLink:
    """One directed link outage: the flit channel and its credit return."""

    src: int
    dst: int
    until: int
    channels: tuple["DelayChannel", ...] = field(default_factory=tuple)


class FaultInjector:
    """Seedable, deterministic fault source bound to one network.

    Construct with a :class:`FaultPlan`, attach via
    :meth:`Network.attach_faults`, and the kernels call :meth:`on_cycle`
    once per cycle (before the delivery phase) while the handshake
    controller consults :meth:`filter_handshake` at every message send.
    Scripted faults (:meth:`kill_link`, :meth:`force_reset`) are exposed
    for targeted tests alongside the randomized plan.
    """

    def __init__(self, plan: FaultPlan | None = None, *,
                 seed: int | None = None) -> None:
        if plan is None:
            plan = FaultPlan(seed=0 if seed is None else seed)
        elif seed is not None:
            raise ValueError("pass the seed inside the FaultPlan, or use "
                             "FaultInjector(seed=...) without a plan")
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.net: "Network | None" = None
        #: injected-fault tally by action name
        self.counts: Counter[str] = Counter()
        #: live outages keyed (src, dst)
        self._dead: dict[tuple[int, int], _DeadLink] = {}
        #: False after :meth:`stop`: pass-through on every hook
        self.enabled = True
        self._kinds = frozenset(plan.kinds)

    # -- wiring ---------------------------------------------------------------

    def bind(self, net: "Network") -> None:
        """Called by :meth:`Network.attach_faults`."""
        if self.net is not None and self.net is not net:
            raise ValueError("FaultInjector is already bound to a network")
        self.net = net

    def _emit(self, now: int, node: int, action: str, target,
              detail) -> None:
        self.counts[action] += 1
        tr = self.net._tracer if self.net is not None else None
        if tr is not None:
            tr.emit(now, "fault", node, action, target, detail)

    # -- handshake message faults (called from HandshakeController._send) -----

    def filter_handshake(self, now: int, src: int, dst: int, msg: "Msg",
                         arrival: int) -> tuple[int, ...]:
        """Arrival cycles the message should be scheduled at.

        ``()`` drops the message, one entry is a (possibly delayed)
        normal delivery, two entries duplicate it.  Ineligible kinds
        pass through untouched; dup/delay further require the kind to
        be reorder-safe (:data:`REORDER_SAFE_KINDS`).
        """
        if not self.enabled or msg.kind not in self._kinds:
            return (arrival,)
        plan = self.plan
        rng = self.rng
        if plan.hs_drop and rng.random() < plan.hs_drop:
            self._emit(now, src, "hs_drop", msg.kind, dst)
            return ()
        if msg.kind not in REORDER_SAFE_KINDS:
            return (arrival,)
        if plan.hs_delay and rng.random() < plan.hs_delay:
            extra = rng.randint(1, plan.hs_delay_max)
            self._emit(now, src, "hs_delay", msg.kind, extra)
            arrival += extra
        if plan.hs_dup and rng.random() < plan.hs_dup:
            self._emit(now, src, "hs_dup", msg.kind, dst)
            return (arrival, arrival + rng.randint(0, 3))
        return (arrival,)

    # -- per-cycle hook (called by both kernels before delivery) --------------

    def on_cycle(self, now: int) -> None:
        if self._dead:
            self._tick_outages(now)
        if not self.enabled:
            return
        plan = self.plan
        if plan.link_kill and len(self._dead) < plan.max_dead_links \
                and self.rng.random() < plan.link_kill:
            self._kill_random_link(now)
        if plan.power_reset and self.rng.random() < plan.power_reset:
            self._random_reset(now)

    # -- link outages ---------------------------------------------------------

    def _link_channels(self, src: int, dst: int) -> tuple:
        """(flit channel src->dst, credit-return wire dst->src)."""
        assert self.net is not None
        r = self.net.routers[src]
        for d in r.mesh_ports:
            if r.neighbor_id(d) == dst:
                nb = self.net.routers[dst]
                return (r.out_flit[d], nb.out_credit[OPPOSITE[d]])
        raise ValueError(f"nodes {src} and {dst} are not mesh neighbors")

    def kill_link(self, src: int, dst: int, now: int,
                  duration: int | None = None) -> None:
        """Take the directed link ``src -> dst`` down for ``duration``
        cycles (stalls flits and returning credits; nothing is lost)."""
        if (src, dst) in self._dead:
            return
        duration = (self.plan.link_kill_duration if duration is None
                    else duration)
        chs = self._link_channels(src, dst)
        self._dead[(src, dst)] = _DeadLink(src, dst, now + duration, chs)
        self._emit(now, src, "link_kill", f"{src}->{dst}", duration)

    def _kill_random_link(self, now: int) -> None:
        assert self.net is not None
        links = []
        for r in self.net.routers:
            for d in r.mesh_ports:
                nb = r.neighbor_id(d)
                if nb is not None and (r.node, nb) not in self._dead:
                    links.append((r.node, nb))
        if links:
            src, dst = self.rng.choice(links)
            self.kill_link(src, dst, now)

    def _tick_outages(self, now: int) -> None:
        """Revive expired outages; stall due arrivals on the live ones.

        Stalling rewrites every due queue entry to ``now + 1``.  The
        queue stays arrival-monotone (the bumped prefix can never
        overtake later entries), and each stalled item gets a wheel
        entry at ``now + 1``; the entries it had at ``now`` go stale and
        the kernel drops them (the ``noc/channel.py`` wheel contract).
        """
        expired = [k for k, dl in self._dead.items() if now >= dl.until]
        for key in expired:
            dl = self._dead.pop(key)
            self._emit(now, dl.src, "link_revive", f"{dl.src}->{dl.dst}", 0)
        for dl in self._dead.values():
            for ch in dl.channels:
                q = ch._q
                if not q or q[0][0] > now:
                    continue
                stalled = []
                while q and q[0][0] <= now:
                    stalled.append(q.popleft()[1])
                for item in reversed(stalled):
                    q.appendleft((now + 1, item))
                if ch.wheel is not None:
                    ch.wheel.setdefault(now + 1, []).extend(
                        [ch] * len(stalled))

    @property
    def dead_links(self) -> tuple[tuple[int, int], ...]:
        """Currently-dead directed links, as ``(src, dst)`` pairs."""
        return tuple(sorted(self._dead))

    def revive_all(self, now: int) -> None:
        """End every outage immediately (used before drain phases)."""
        for dl in list(self._dead.values()):
            self._emit(now, dl.src, "link_revive", f"{dl.src}->{dl.dst}", 0)
        self._dead.clear()

    # -- spurious power-FSM resets --------------------------------------------

    def _reset_candidates(self) -> list[tuple[int, str]]:
        """(node, action) pairs a reset could legally target right now.

        Only protocol abort paths are forced — a reset that teleported a
        router across FSM states would corrupt invariants by
        construction and test nothing about the protocol.  A WAKEUP
        router whose power-on timer already started is past the point of
        no return (the real controller never aborts it), so it is not a
        candidate.
        """
        net = self.net
        assert net is not None
        hsc = getattr(net.mech, "hsc", None)
        if hsc is None:
            return []
        out: list[tuple[int, str]] = []
        for r in net.routers:
            if r.state == PowerState.DRAINING:
                out.append((r.node, "drain_abort"))
            elif r.state == PowerState.WAKEUP:
                prog = hsc._wakers.get(r.node)
                if prog is not None and prog.timer_end is None:
                    out.append((r.node, "wake_abort"))
            elif r.state == PowerState.SLEEP:
                out.append((r.node, "spurious_wake"))
        return out

    def force_reset(self, now: int, node: int, action: str) -> bool:
        """Apply one spurious reset; returns False if no longer legal."""
        net = self.net
        assert net is not None
        hsc = getattr(net.mech, "hsc", None)
        if hsc is None:
            return False
        r = net.routers[node]
        if action == "drain_abort":
            if r.state != PowerState.DRAINING:
                return False
            self._emit(now, node, "power_reset", "DRAINING", node)
            hsc._abort_drain(r, now, reason="fault_reset")
        elif action == "wake_abort":
            prog = hsc._wakers.get(node)
            if (r.state != PowerState.WAKEUP or prog is None
                    or prog.timer_end is not None):
                return False
            self._emit(now, node, "power_reset", "WAKEUP", node)
            hsc._abort_wakeup(r, now)
        elif action == "spurious_wake":
            if r.state != PowerState.SLEEP:
                return False
            # poke it awake through the message plane, as a data-plane
            # wake_req from a physical neighbor would
            nb = next((r.neighbor_id(d) for d in r.mesh_ports
                       if r.neighbor_id(d) is not None), None)
            if nb is None:
                return False
            from ..core.handshake import Msg
            self._emit(now, node, "power_reset", "SLEEP", nb)
            hsc._send(now, nb, node, Msg("wake_req", nb))
        else:
            raise ValueError(f"unknown reset action {action!r}")
        return True

    def _random_reset(self, now: int) -> None:
        cands = self._reset_candidates()
        if cands:
            node, action = self.rng.choice(cands)
            self.force_reset(now, node, action)

    # -- lifecycle ------------------------------------------------------------

    def stop(self, now: int) -> None:
        """Stop injecting and heal the fabric (outages end immediately).

        Used by the soak harness before its drain phase: the protocol
        must recover from everything already injected, with no new
        faults arriving.
        """
        self.revive_all(now)
        self.enabled = False

    def report(self) -> dict[str, int]:
        """Injected-fault tally by action (stable key order)."""
        return dict(sorted(self.counts.items()))

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self) -> dict:
        from ..noc.snapshot import encode_rng
        # the plan is constructor configuration, not state; dead-link
        # channel tuples are re-derived from the topology on restore
        return {
            "rng": encode_rng(self.rng),
            "counts": dict(sorted(self.counts.items())),
            "dead": [[src, dst, dl.until]
                     for (src, dst), dl in sorted(self._dead.items())],
            "enabled": self.enabled,
        }

    def restore_state(self, data: dict) -> None:
        from ..noc.snapshot import decode_rng
        decode_rng(self.rng, data["rng"])
        self.counts = Counter(data["counts"])
        self._dead = {
            (src, dst): _DeadLink(src, dst, until,
                                  self._link_channels(src, dst))
            for src, dst, until in data["dead"]}
        self.enabled = data["enabled"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        total = sum(self.counts.values())
        return (f"<FaultInjector seed={self.plan.seed} {total} faults "
                f"{'on' if self.enabled else 'stopped'}>")
