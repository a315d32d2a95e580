"""Explicit-state model checking of the FLOV handshake product.

Enumerates every reachable state of the *distributed* rFLOV/gFLOV
handshake — the product of all per-router power FSMs, PSR/pointer
registers, in-flight control messages and ack obligations — on a small
mesh under **adversarial interleavings**, in the spirit of Roberts et
al., *Probabilistic Verification for Reliability of a Two-by-Two NoC*
(arXiv:2108.13148), but exhaustive rather than sampled.

The model mirrors the message handlers of
:mod:`repro.core.handshake` one branch at a time (the docstrings below
cite them); anything the handlers read from the data plane is replaced
by adversarial nondeterminism, so the checked state space *over*-covers
every schedule the simulator can produce:

* **delivery order** — messages between one ``(src, dst)`` pair keep
  FIFO order (hop latency is fixed per pair, so the timed heap can
  never reorder them); across pairs the adversary delivers in any
  order, covering every crossing the timing could produce and more;
* **ack timing** — a drain/wakeup ack obligation fires whenever the
  adversary likes (the real gate, "nothing in flight toward the
  requester", is data-plane state);
* **drain eligibility** — the idle-threshold / NI-empty / backoff
  gates are dropped; any gated ACTIVE router whose PSR neighborhood
  permits (``_may_drain``) may start draining at any moment;
* **attempt tokens** — replaced by a per-message *current* bit that is
  invalidated when the requester starts a new attempt.  Exact: a real
  ack is accepted iff its token equals the requester's live attempt
  token, i.e. iff it was minted by that attempt and no newer attempt
  started — precisely when the bit is still set.

Not modeled (documented abstractions): credits and flits (see the
runtime invariant checkers in ``noc/validation.py`` for those),
VC pauses, the drain/wakeup watchdogs and retry backoffs (they exist to
ride out data-plane congestion and injected faults; in the fault-free
model every handshake must terminate *without* them — a state where one
cannot is reported as a deadlock), and ``wake_req`` rate limiting.

Checked properties:

* **no deadlock** — every terminal state (no enabled transition) has
  drained its message/obligation sets and left no router wedged in
  DRAINING/WAKEUP;
* **no dual-sleep / forbidden commits** — a sleep commit never observes
  a logical partner in DRAINING or WAKEUP, an active commit never
  observes a DRAINING partner (paper SS IV's forbidden combinations),
  and under rFLOV no two physically adjacent routers are ever
  simultaneously gated, in *any* reachable state;
* **eventual wakeup** — in terminal states every router whose core is
  ungated is ACTIVE;
* **view convergence** — in terminal states every ACTIVE router's PSRs
  match its physical neighbors' true states and its logical pointers
  name the nearest powered router per direction (the quiescent pointer
  coherence rule of ``noc/validation.py``).

Counterexamples are reconstructed via BFS parent pointers and rendered
both as human-readable transition labels and as
:class:`~repro.obs.events.TraceEvent` sequences (abstract step index as
the cycle), so they read like any other trace in ``repro analyze``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..obs.events import TraceEvent

# power states (values match core.power_fsm.PowerState)
A, D, S, W = 0, 1, 2, 3
_STATE_NAMES = ("ACTIVE", "DRAINING", "SLEEP", "WAKEUP")

# directions: E, W, N, S; OPP flips the low bit
_DELTAS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_OPP = (1, 0, 3, 2)
_DIR_NAMES = ("EAST", "WEST", "NORTH", "SOUTH")

#: supported FSM mutants (deliberately broken variants used to prove the
#: checker can find bugs):
#:
#: * ``drop_grant`` — a draining router ignores incoming ``drain_done``
#:   grants (mirrors dropping the ack handler);
#: * ``dup_drain_done`` — the requester accepts *stale* ``drain_done``
#:   acks as fresh (mirrors a duplicated ack from an aborted earlier
#:   attempt slipping past the token check), so a drain can commit on a
#:   grant that was never addressed to the live attempt;
#: * ``lost_wake_abort`` — the wake watchdog fires (a stuck WAKEUP
#:   router gives up and returns to SLEEP) but the entire abort
#:   hand-off is lost: relays never receive the ``wake_abort`` copies
#:   that restore their pointer/PSR views, and the router's
#:   ``want_wake`` retry entry is dropped.  The faithful model omits
#:   the watchdog entirely (fault-free handshakes terminate without
#:   it), so this mutant also enables the abort transition itself.
MUTANTS = ("drop_grant", "dup_drain_done", "lost_wake_abort")


@dataclass(frozen=True)
class ModelConfig:
    """One model-checking problem instance."""

    width: int = 2
    height: int = 2
    #: True = gFLOV partner rules, False = rFLOV physical-neighbor rules
    generalized: bool = True
    #: node ids whose cores the OS gates initially (drain candidates)
    gated: tuple[int, ...] = (0, 3)
    #: gated set after a single adversarial schedule change (None = no
    #: schedule change; the change may fire at any point, once)
    regated: tuple[int, ...] | None = None
    #: name from :data:`MUTANTS`, or None for the faithful model
    mutant: str | None = None
    #: exploration cap; exceeding it raises instead of under-reporting
    max_states: int = 2_000_000

    def __post_init__(self) -> None:
        n = self.width * self.height
        for node in self.gated + (self.regated or ()):
            if not 0 <= node < n:
                raise ValueError(f"gated node {node} outside {n}-node mesh")
        if self.mutant is not None and self.mutant not in MUTANTS:
            raise ValueError(f"unknown mutant {self.mutant!r}; "
                             f"choose from {MUTANTS}")


@dataclass(frozen=True)
class Violation:
    """One property violation plus its replayable counterexample."""

    #: property that failed (``deadlock`` / ``forbidden_commit`` /
    #: ``adjacent_gated`` / ``never_woken`` / ``stale_view``)
    kind: str
    detail: str
    #: transition labels from the initial state to the violating state
    trace: tuple[str, ...]
    #: the same trace in the repo-wide event taxonomy (step as cycle)
    events: tuple[TraceEvent, ...]


@dataclass(frozen=True)
class CheckResult:
    config: ModelConfig
    #: distinct reachable states enumerated
    states: int
    #: transitions explored
    transitions: int
    #: terminal (quiescent) states found
    terminals: int
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        mesh = f"{self.config.width}x{self.config.height}"
        mech = "gflov" if self.config.generalized else "rflov"
        head = (f"{mech} {mesh}: {self.states} states, "
                f"{self.transitions} transitions, "
                f"{self.terminals} terminal")
        if self.ok:
            return head + " -- all properties hold"
        v = self.violations[0]
        return (head + f" -- {len(self.violations)} violation(s); "
                f"first: [{v.kind}] {v.detail} "
                f"({len(v.trace)}-step counterexample)")


class _Geometry:
    """Static mesh facts shared by every state."""

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.n = width * height
        self.ports: list[tuple[int, ...]] = []
        self.nbr: list[tuple[int, ...]] = []       # per dir, -1 off-mesh
        self.edge: list[tuple[int, ...]] = []      # farthest node per dir
        self.line: list[list[tuple[int, ...]]] = []  # nodes along dir, near->far
        for node in range(self.n):
            x, y = node % width, node // width
            ports, nbrs, edges, lines = [], [], [], []
            for di, (dx, dy) in enumerate(_DELTAS):
                chain = []
                cx, cy = x + dx, y + dy
                while 0 <= cx < width and 0 <= cy < height:
                    chain.append(cy * width + cx)
                    cx += dx
                    cy += dy
                lines.append(tuple(chain))
                nbrs.append(chain[0] if chain else -1)
                edges.append(chain[-1] if chain else -1)
                if chain:
                    ports.append(di)
            self.ports.append(tuple(ports))
            self.nbr.append(tuple(nbrs))
            self.edge.append(tuple(edges))
            self.line.append(lines)
        #: dir_toward[a][b] -> direction index or -1 (not on a line)
        self.toward = [[-1] * self.n for _ in range(self.n)]
        self.dist = [[0] * self.n for _ in range(self.n)]
        for a in range(self.n):
            for di in self.ports[a]:
                for hops, b in enumerate(self.line[a][di], start=1):
                    self.toward[a][b] = di
                    self.dist[a][b] = hops


class _State:
    """Mutable working copy of one global state (thaw -> mutate -> freeze)."""

    __slots__ = ("st", "pend", "ww", "psr", "lptr", "lpsr", "chans",
                 "obls", "epoch", "violations")

    def __init__(self, frozen, geom: _Geometry) -> None:
        nodes, chans, obls, epoch = frozen
        self.st = [nd[0] for nd in nodes]
        self.pend = [set(nd[1]) for nd in nodes]
        self.ww = [nd[2] for nd in nodes]
        self.psr = [list(nd[3]) for nd in nodes]
        self.lptr = [list(nd[4]) for nd in nodes]
        self.lpsr = [list(nd[5]) for nd in nodes]
        self.chans = {key: list(q) for key, q in chans}
        self.obls = dict(obls)
        self.epoch = epoch
        self.violations: list[str] = []

    def freeze(self):
        nodes = tuple(
            (self.st[n], frozenset(self.pend[n]), self.ww[n],
             tuple(self.psr[n]), tuple(self.lptr[n]), tuple(self.lpsr[n]))
            for n in range(len(self.st)))
        chans = tuple(sorted((key, tuple(q))
                             for key, q in self.chans.items() if q))
        obls = tuple(sorted(self.obls.items()))
        return (nodes, chans, obls, self.epoch)


class _Model:
    """Transition semantics: a faithful abstraction of HandshakeController."""

    def __init__(self, cfg: ModelConfig) -> None:
        self.cfg = cfg
        self.geom = _Geometry(cfg.width, cfg.height)
        self.gated0 = frozenset(cfg.gated)
        self.gated1 = (frozenset(cfg.regated)
                       if cfg.regated is not None else None)

    # -- initial state --------------------------------------------------------

    def initial(self):
        g = self.geom
        nodes = tuple(
            (A, frozenset(), False,
             tuple(A for _ in range(4)),
             tuple(g.nbr[n]),                 # logical ptr = phys neighbor
             tuple(A for _ in range(4)))
            for n in range(g.n))
        return (nodes, (), (), 0)

    def gated(self, epoch: int) -> frozenset:
        return self.gated0 if epoch == 0 else self.gated1

    # -- message plumbing -----------------------------------------------------

    def _send(self, w: _State, src: int, dst: int, msg: tuple) -> None:
        w.chans.setdefault((src, dst), []).append(msg)

    def _send_along(self, w: _State, src: int, d: int, msg: tuple,
                    until: int) -> None:
        """Copies to every router from ``src`` along ``d`` up to ``until``
        inclusive (mirrors ``_send_along``); ``until == -1`` sends none."""
        if until == -1:
            return
        for node in self.geom.line[src][d]:
            self._send(w, src, node, msg)
            if node == until:
                break

    def _stale_out(self, w: _State, n: int) -> None:
        """Node ``n`` starts a new handshake attempt: every live token it
        minted earlier (drain/wakeup requests from it, acks addressed to
        it, obligations owed to it) can no longer match (token bump)."""
        for (src, dst), q in w.chans.items():
            for i, msg in enumerate(q):
                if msg[0] in ("drain", "wakeup") and src == n and msg[-1]:
                    q[i] = msg[:-1] + (False,)
                elif msg[0] == "drain_done" and dst == n and msg[-1]:
                    q[i] = (msg[0], False)
        for key, (kind, cur) in list(w.obls.items()):
            if key[1] == n and cur:
                w.obls[key] = (kind, False)

    # -- shared helpers mirroring handshake.py --------------------------------

    def _dir_toward(self, r: int, src: int) -> int:
        return self.geom.toward[r][src]

    def _nearer(self, r: int, d: int, a: int, b: int) -> bool:
        """``_nearer``: is ``a`` strictly nearer to ``r`` along ``d`` than
        ``b``?  (``b == -1`` means no current pointer: yes.)"""
        if b == -1:
            return True
        da = self.geom.dist[r][a] if self.geom.toward[r][a] == d else 0
        db = self.geom.dist[r][b] if self.geom.toward[r][b] == d else 0
        return da > 0 and (db == 0 or da < db)

    def _set_psr(self, w: _State, r: int, src: int, state: int) -> None:
        d = self._dir_toward(r, src)
        if d != -1 and self.geom.nbr[r][d] == src:
            w.psr[r][d] = state

    def _abort_drain(self, w: _State, r: int) -> None:
        """``_abort_drain``: back to ACTIVE, notify partners."""
        w.st[r] = A
        w.pend[r] = set()
        for d in self.geom.ports[r]:
            partner = w.lptr[r][d]
            if partner != -1:
                self._send(w, r, partner, ("drain_abort",))

    # -- message handlers (one per _on_* in handshake.py) ---------------------

    def _deliver(self, w: _State, src: int, r: int, msg: tuple) -> None:
        kind = msg[0]
        getattr(self, f"_on_{kind}")(w, r, src, *msg[1:])

    def _on_drain(self, w: _State, r: int, src: int, cur: bool) -> None:
        d = self._dir_toward(r, src)
        if d == -1:
            return
        self._set_psr(w, r, src, D)
        if w.lptr[r][d] == src:
            w.lpsr[r][d] = D
        if w.st[r] == D:
            if r > src:  # Draining-Draining: lower id proceeds
                self._abort_drain(w, r)
                w.obls[(r, src)] = ("drain", cur)
            return
        if w.st[r] == W:  # Draining-Wakeup: wakeup wins, no ack
            return
        if w.st[r] == S:  # stale handshake: nothing in flight, ack now
            self._send(w, r, src, ("drain_done", cur))
            return
        w.obls[(r, src)] = ("drain", cur)

    def _on_drain_abort(self, w: _State, r: int, src: int) -> None:
        self._set_psr(w, r, src, A)
        d = self._dir_toward(r, src)
        if d != -1 and w.lptr[r][d] == src:
            w.lpsr[r][d] = A
        w.obls.pop((r, src), None)

    def _on_drain_done(self, w: _State, r: int, src: int,
                       cur: bool) -> None:
        if w.st[r] not in (D, W):
            return  # no live attempt (mirrors prog is None)
        if self.cfg.mutant == "drop_grant" and w.st[r] == D:
            return  # MUTANT: drainer ignores its grants
        if not cur:
            if self.cfg.mutant != "dup_drain_done":
                return  # stale ack for an aborted earlier attempt
            # MUTANT: a duplicated ack from an aborted earlier attempt
            # is accepted as if it answered the live one
        w.pend[r].discard(src)

    def _on_sleep(self, w: _State, r: int, src: int, beyond: int,
                  beyond_state: int) -> None:
        d = self._dir_toward(r, src)
        if d == -1:
            return
        self._set_psr(w, r, src, S)
        cur_ptr = w.lptr[r][d]
        if cur_ptr != -1 and cur_ptr != src \
                and self._nearer(r, d, cur_ptr, src):
            return  # a nearer router owns the pointer
        w.lptr[r][d] = beyond
        w.lpsr[r][d] = beyond_state if beyond_state != -1 else A
        if w.st[r] == W and src in w.pend[r]:
            # partner gated mid-handshake: re-target beyond it
            w.pend[r].discard(src)
            if beyond != -1:
                w.pend[r].add(beyond)
                self._send_along(w, r, d, ("wakeup", beyond, True),
                                 until=beyond)
        if w.st[r] == D and src in w.pend[r]:
            w.pend[r].discard(src)
            if beyond != -1:
                w.pend[r].add(beyond)
                self._send(w, r, beyond, ("drain", True))

    def _on_wakeup(self, w: _State, r: int, src: int, target: int,
                   cur: bool) -> None:
        d = self._dir_toward(r, src)
        if d == -1:
            return
        self._set_psr(w, r, src, W)
        cp = w.lptr[r][d]
        if cp == -1 or cp == src or self._nearer(r, d, src, cp):
            w.lptr[r][d] = src
            w.lpsr[r][d] = W
        if w.st[r] in (S, W):  # not powered
            if target == r:  # addressed partner gated meanwhile: ack
                self._send(w, r, src, ("drain_done", cur))
            return
        if w.st[r] == D:  # Draining-Wakeup: wakeup wins
            self._abort_drain(w, r)
        w.obls[(r, src)] = ("wake", cur)

    def _on_awake(self, w: _State, r: int, src: int) -> None:
        d = self._dir_toward(r, src)
        if d == -1:
            return
        self._set_psr(w, r, src, A)
        cp = w.lptr[r][d]
        if not (cp == -1 or cp == src or self._nearer(r, d, src, cp)):
            return  # stale awake from a farther router
        w.lptr[r][d] = src
        w.lpsr[r][d] = A

    def _on_wake_abort(self, w: _State, r: int, src: int, beyond: int,
                       beyond_state: int) -> None:
        d = self._dir_toward(r, src)
        if d == -1:
            return
        self._set_psr(w, r, src, S)
        w.obls.pop((r, src), None)
        cp = w.lptr[r][d]
        if cp != -1 and cp != src and self._nearer(r, d, cp, src):
            return
        w.lptr[r][d] = beyond
        w.lpsr[r][d] = beyond_state if beyond_state != -1 else A

    def _on_wake_req(self, w: _State, r: int, src: int) -> None:
        if w.st[r] == S:
            w.ww[r] = True
        elif w.st[r] == D:
            self._abort_drain(w, r)

    # -- spontaneous transitions ----------------------------------------------

    def _may_drain(self, w: _State, n: int) -> bool:
        """``_may_drain`` minus the data-plane gates (idle/NI/backoff)."""
        if w.st[n] != A or n not in self.gated(w.epoch):
            return False
        ports = self.geom.ports[n]
        if not self.cfg.generalized:
            return all(w.psr[n][d] == A for d in ports)
        for d in ports:
            if w.psr[n][d] in (D, W) or w.lpsr[n][d] in (D, W):
                return False
        return True

    def _start_drain(self, w: _State, n: int) -> None:
        w.st[n] = D
        self._stale_out(w, n)
        for d in self.geom.ports[n]:
            partner = w.lptr[n][d]
            if partner != -1:
                w.pend[n].add(partner)
                self._send(w, n, partner, ("drain", True))
        if not w.pend[n]:  # fully isolated line
            self._commit_sleep(w, n)

    def _effective_pend(self, w: _State, n: int) -> set:
        """Pending partners still powered (``_drop_gated_partners``:
        a gated partner has nothing in flight — its ack is implied)."""
        return {p for p in w.pend[n] if w.st[p] in (A, D)}

    def _commit_sleep(self, w: _State, n: int) -> None:
        """``_commit_sleep`` + the forbidden-combination property check."""
        bad = []
        for d in self.geom.ports[n]:
            p = w.lptr[n][d]
            if p != -1 and w.st[p] in (D, W):
                bad.append((p, _STATE_NAMES[w.st[p]]))
        if bad:
            w.violations.append(
                f"node {n} committed SLEEP with mid-transition "
                f"partners {bad}")
        w.st[n] = S
        w.pend[n] = set()
        for side in self.geom.ports[n]:
            d = _OPP[side]
            if d in self.geom.ports[n]:
                beyond = w.lptr[n][d]
                beyond_state = w.st[beyond] if beyond != -1 else -1
            else:  # mesh edge: nothing beyond
                beyond, beyond_state = -1, -1
            until = w.lptr[n][side]
            if until == -1:
                until = self.geom.edge[n][side]
            self._send_along(w, n, side, ("sleep", beyond, beyond_state),
                             until=until)

    def _start_wakeup(self, w: _State, n: int) -> None:
        w.st[n] = W
        self._stale_out(w, n)
        for d in self.geom.ports[n]:
            partner = w.lptr[n][d]
            if partner != -1:
                w.pend[n].add(partner)
                self._send_along(w, n, d, ("wakeup", partner, True),
                                 until=partner)

    def _commit_active(self, w: _State, n: int) -> None:
        bad = []
        for d in self.geom.ports[n]:
            p = w.lptr[n][d]
            if p != -1 and w.st[p] == D:
                bad.append(p)
        if bad:
            w.violations.append(
                f"node {n} committed ACTIVE with draining partners {bad}")
        w.st[n] = A
        w.pend[n] = set()
        w.ww[n] = False
        for d in self.geom.ports[n]:
            partner = w.lptr[n][d]
            until = partner if partner != -1 else self.geom.edge[n][d]
            self._send_along(w, n, d, ("awake",), until=until)

    def _advance_epoch(self, w: _State) -> None:
        """``on_schedule_change``: one adversarial re-gating."""
        assert self.gated1 is not None
        woken = self.gated0 - self.gated1
        w.epoch = 1
        for n in sorted(woken):
            if w.st[n] == D:
                self._abort_drain(w, n)
            elif w.st[n] == S:
                w.ww[n] = True

    # -- successor enumeration ------------------------------------------------

    def successors(self, frozen):
        """Yield ``(label, successor, commit_violations)`` triples."""
        geom = self.geom
        nodes, chans, obls, epoch = frozen
        probe = _State(frozen, geom)  # read-only copy for enablement tests

        def apply(label, fn, *args):
            w = _State(frozen, geom)
            fn(w, *args)
            return (label, w.freeze(), tuple(w.violations))

        for (src, dst), q in chans:
            yield apply(("deliver", q[0][0], src, dst),
                        self._pop_and_handle, src, dst)
        for (obs, req), _kindcur in obls:
            yield apply(("ack", obs, req), self._fire_obligation, obs, req)
        for n in range(geom.n):
            st = nodes[n][0]
            if st == A:
                if self._may_drain(probe, n):
                    yield apply(("drain", n), self._start_drain, n)
            elif st == S:
                if nodes[n][2]:  # want_wake
                    yield apply(("wake", n), self._start_wakeup, n)
            elif st == D:
                if not self._effective_pend(probe, n):
                    # finish_drain: surviving pending partners unpowered
                    yield apply(("sleep", n), self._commit_sleep, n)
            elif st == W:
                if not self._effective_pend(probe, n):
                    yield apply(("active", n), self._commit_active, n)
                elif self.cfg.mutant == "lost_wake_abort":
                    # MUTANT: the wake watchdog may fire on any stuck
                    # wakeup, and the whole abort hand-off is lost —
                    # relays never hear wake_abort, the retry entry is
                    # dropped.  Clearing want_wake also keeps the state
                    # space finite (no unbounded abort/retry cycles).
                    yield apply(("wake_abort", n), self._abort_wake_lost, n)
        if self.gated1 is not None and epoch == 0:
            yield apply(("epoch",), self._advance_epoch)

    # successors() helpers that need the working copy

    def _pop_and_handle(self, w: _State, src: int, dst: int) -> None:
        q = w.chans[(src, dst)]
        msg = q.pop(0)
        if not q:
            del w.chans[(src, dst)]
        self._deliver(w, src, dst, msg)

    def _fire_obligation(self, w: _State, obs: int, req: int) -> None:
        kind, cur = w.obls.pop((obs, req))
        self._send(w, obs, req, ("drain_done", cur))

    def _abort_wake_lost(self, w: _State, n: int) -> None:
        """``lost_wake_abort`` mutant body: the watchdog retreats a
        stuck WAKEUP router to SLEEP, but the entire abort hand-off is
        lost — the ``wake_abort`` copies that should restore the
        relays' pointer/PSR views are never sent, and the router's
        ``want_wake`` retry entry is dropped (its bookkeeping believed
        the aborts were delivered, so it waits for a ``wake_req`` that
        never comes)."""
        w.st[n] = S
        w.pend[n] = set()
        w.ww[n] = False
        self._stale_out(w, n)

    # -- per-state and terminal property checks -------------------------------

    def state_violations(self, frozen) -> list[tuple[str, str]]:
        """Safety properties that must hold in *every* reachable state."""
        out = []
        if not self.cfg.generalized:
            nodes = frozen[0]
            for n in range(self.geom.n):
                if nodes[n][0] not in (S, W):
                    continue
                for d in self.geom.ports[n]:
                    nb = self.geom.nbr[n][d]
                    if nb > n and nodes[nb][0] in (S, W):
                        out.append((
                            "adjacent_gated",
                            f"physically adjacent routers {n} and {nb} "
                            f"are simultaneously gated "
                            f"({_STATE_NAMES[nodes[n][0]]}/"
                            f"{_STATE_NAMES[nodes[nb][0]]})"))
        return out

    def terminal_violations(self, frozen) -> list[tuple[str, str]]:
        """Liveness/convergence properties checked at quiescence."""
        nodes, chans, obls, epoch = frozen
        out = []
        gated = self.gated(epoch)
        st = [nd[0] for nd in nodes]
        for n in range(self.geom.n):
            if st[n] in (D, W):
                out.append(("deadlock",
                            f"terminal state leaves node {n} wedged in "
                            f"{_STATE_NAMES[st[n]]}"))
            elif st[n] == S and n not in gated:
                out.append(("never_woken",
                            f"ungated node {n} remains asleep at "
                            f"quiescence"))
        for n in range(self.geom.n):
            if st[n] != A:
                continue  # view checks apply to powered routers
            nd = nodes[n]
            for d in self.geom.ports[n]:
                nb = self.geom.nbr[n][d]
                if nd[3][d] != st[nb]:
                    out.append((
                        "stale_view",
                        f"node {n} PSR[{_DIR_NAMES[d]}] = "
                        f"{_STATE_NAMES[nd[3][d]]} but neighbor {nb} is "
                        f"{_STATE_NAMES[st[nb]]}"))
                expected = -1
                for m in self.geom.line[n][d]:
                    if st[m] == A:
                        expected = m
                        break
                if nd[4][d] != expected:
                    out.append((
                        "stale_view",
                        f"node {n} logical[{_DIR_NAMES[d]}] = {nd[4][d]} "
                        f"but nearest powered router is {expected}"))
                elif expected != -1 and nd[5][d] != A:
                    out.append((
                        "stale_view",
                        f"node {n} logical PSR[{_DIR_NAMES[d]}] stuck at "
                        f"{_STATE_NAMES[nd[5][d]]}"))
        return out


# -- counterexample rendering --------------------------------------------------

def _label_str(label: tuple) -> str:
    kind = label[0]
    if kind == "deliver":
        return f"deliver {label[1]} {label[2]}->{label[3]}"
    if kind == "ack":
        return f"node {label[1]} acks drain_done to {label[2]}"
    if kind == "drain":
        return f"node {label[1]} starts draining"
    if kind == "sleep":
        return f"node {label[1]} commits SLEEP"
    if kind == "wake":
        return f"node {label[1]} starts wakeup"
    if kind == "active":
        return f"node {label[1]} commits ACTIVE"
    if kind == "wake_abort":
        return (f"node {label[1]} aborts wakeup "
                f"(wake_abort notifications lost)")
    if kind == "epoch":
        return "OS gating schedule change"
    return repr(label)


def _label_event(step: int, label: tuple) -> TraceEvent | None:
    kind = label[0]
    if kind == "deliver":
        return TraceEvent(step, "hs_recv", label[3], (label[1], label[2]))
    if kind == "ack":
        return TraceEvent(step, "hs_send", label[1],
                          ("drain_done", label[2]))
    if kind == "drain":
        return TraceEvent(step, "power", label[1],
                          ("ACTIVE", "DRAINING", "idle_drain", ()))
    if kind == "sleep":
        return TraceEvent(step, "power", label[1],
                          ("DRAINING", "SLEEP", "drain_complete", ()))
    if kind == "wake":
        return TraceEvent(step, "power", label[1],
                          ("SLEEP", "WAKEUP", "wakeup_start", ()))
    if kind == "active":
        return TraceEvent(step, "power", label[1],
                          ("WAKEUP", "ACTIVE", "wakeup_complete", ()))
    if kind == "wake_abort":
        return TraceEvent(step, "power", label[1],
                          ("WAKEUP", "SLEEP", "wake_watchdog", ()))
    return None  # epoch: schedule input, not a protocol event


def render_trace(labels: tuple) -> tuple[tuple[str, ...],
                                         tuple[TraceEvent, ...]]:
    lines = tuple(_label_str(lb) for lb in labels)
    events = tuple(ev for i, lb in enumerate(labels)
                   if (ev := _label_event(i, lb)) is not None)
    return lines, events


# -- breadth-first exploration -------------------------------------------------

def check_model(cfg: ModelConfig, *, max_violations: int = 8) -> CheckResult:
    """Exhaustively enumerate the handshake product and check properties.

    Raises :class:`RuntimeError` if ``cfg.max_states`` is hit, rather
    than silently reporting a partial (unsound) result.
    """
    model = _Model(cfg)
    init = model.initial()
    ids: dict = {init: 0}
    parents: list[tuple[int, tuple] | None] = [None]
    frontier = deque([init])
    violations: list[Violation] = []
    transitions = 0
    terminals = 0

    def path_to(state) -> tuple:
        labels: list[tuple] = []
        sid = ids[state]
        while parents[sid] is not None:
            pid, label = parents[sid]
            labels.append(label)
            sid = pid
        return tuple(reversed(labels))

    def record(kind: str, detail: str, labels: tuple) -> None:
        if len(violations) >= max_violations:
            return
        lines, events = render_trace(labels)
        violations.append(Violation(kind, detail, lines, events))

    for kind, detail in model.state_violations(init):
        record(kind, detail, ())

    while frontier:
        state = frontier.popleft()
        succ_count = 0
        for label, nxt, commit_viol in model.successors(state):
            transitions += 1
            succ_count += 1
            for detail in commit_viol:
                # a property of this edge: report it even when the
                # successor state was already reached another way
                record("forbidden_commit", detail,
                       path_to(state) + (label,))
            if nxt not in ids:
                if len(ids) >= cfg.max_states:
                    raise RuntimeError(
                        f"state space exceeds max_states="
                        f"{cfg.max_states}; refusing a partial result")
                ids[nxt] = len(ids)
                parents.append((ids[state], label))
                frontier.append(nxt)
                for kind, detail in model.state_violations(nxt):
                    record(kind, detail, path_to(nxt))
        if succ_count == 0:
            terminals += 1
            for kind, detail in model.terminal_violations(state):
                record(kind, detail, path_to(state))

    return CheckResult(config=cfg, states=len(ids),
                       transitions=transitions, terminals=terminals,
                       violations=tuple(violations))
