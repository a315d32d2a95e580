"""Router power states (Figure 2 of the paper).

State machine::

                +----------- abort (lost arbitration / wakeup signal)
                v
    ACTIVE -> DRAINING -> SLEEP -> WAKEUP -> ACTIVE
      ^                                        |
      +----------------------------------------+

* ``ACTIVE``   — baseline router fully operational.
* ``DRAINING`` — wants to sleep; no *new* packets may be sent to it;
  in-flight packets finish; input buffers empty out.
* ``SLEEP``    — baseline router power-gated; FLOV latch datapath active;
  credits and handshake signals are relayed.
* ``WAKEUP``   — tearing down the FLOV path: neighbors stop new
  transmissions through it, latches drain, then the 10-cycle power-on.

The FSM itself lives in :class:`repro.core.handshake.HandshakeController`;
this module defines the states.  Their order encodes the two classes
they fall into: the baseline pipeline runs while ``state <= DRAINING``
(ACTIVE, DRAINING), the FLOV latch datapath forwards otherwise (SLEEP,
WAKEUP) — the router tests that comparison inline.
"""

from __future__ import annotations

from enum import IntEnum


class PowerState(IntEnum):
    ACTIVE = 0
    DRAINING = 1
    SLEEP = 2
    WAKEUP = 3
