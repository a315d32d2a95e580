"""Per-VC input buffers and their flow-control state."""

from __future__ import annotations

from collections import deque
from enum import IntEnum

from .types import Direction, Flit


class VCState(IntEnum):
    """Input-VC pipeline state (BookSim-style)."""

    IDLE = 0      #: no packet owns this VC's head-of-line
    ROUTING = 1   #: head at front, awaiting route computation / VC alloc
    ACTIVE = 2    #: output port+VC allocated; flits flow via SA/ST


class InputVC:
    """One virtual-channel FIFO at a router input port.

    The FIFO may hold flits of more than one packet (the tail of an old
    packet followed by the head of a new one, which happens when the
    upstream reallocates the output VC as soon as the old tail leaves).
    The state machine always describes the packet at the *front*:
    popping a tail frees the VC, and if the next front flit is a head,
    the VC immediately re-enters ROUTING for it.
    """

    __slots__ = ("capacity", "buffer", "state", "out_port", "out_vc",
                 "wait_since")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.buffer: deque[Flit] = deque()
        self.state = VCState.IDLE
        self.out_port: Direction | None = None
        self.out_vc: int = -1
        #: cycle the current head started waiting (escape-timeout tracking)
        self.wait_since: int = -1

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.buffer)

    @property
    def free_slots(self) -> int:
        """Buffer slots currently unoccupied."""
        return self.capacity - len(self.buffer)

    @property
    def front(self) -> Flit | None:
        """Flit at the head of the FIFO, or None."""
        return self.buffer[0] if self.buffer else None

    # -- mutation ------------------------------------------------------------

    def pop(self, now: int) -> Flit:
        """Remove the front flit; a tail departure frees the VC."""
        flit = self.buffer.popleft()
        if flit.is_tail:
            self.out_port = None
            self.out_vc = -1
            # a head queued behind the tail starts ROUTING at once
            if self.buffer and self.buffer[0].is_head:
                self.state = VCState.ROUTING
                self.wait_since = now
            else:
                self.state = VCState.IDLE
                self.wait_since = -1
        return flit

    def release_route(self, now: int) -> None:
        """Drop a granted route and return to ROUTING (escape escalation)."""
        self.state = VCState.ROUTING
        self.out_port = None
        self.out_vc = -1
        self.wait_since = now

    # -- SimSnapshot protocol -------------------------------------------------

    def snapshot_state(self, pkts) -> dict:
        from .snapshot import encode_flit
        return {"buffer": [encode_flit(f, pkts) for f in self.buffer],
                "state": int(self.state),
                "out_port": (None if self.out_port is None
                             else int(self.out_port)),
                "out_vc": self.out_vc,
                "wait_since": self.wait_since}

    def restore_state(self, data: dict, pkts) -> None:
        from .snapshot import decode_flit
        self.buffer = deque(decode_flit(f, pkts) for f in data["buffer"])
        self.state = VCState(data["state"])
        self.out_port = (None if data["out_port"] is None
                         else Direction(data["out_port"]))
        self.out_vc = data["out_vc"]
        self.wait_since = data["wait_since"]
