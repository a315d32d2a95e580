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
this module defines the states and the two state classes they fall into.
"""

from __future__ import annotations

from enum import IntEnum


class PowerState(IntEnum):
    ACTIVE = 0
    DRAINING = 1
    SLEEP = 2
    WAKEUP = 3


#: States in which the baseline router pipeline operates.
POWERED_STATES = frozenset({PowerState.ACTIVE, PowerState.DRAINING})

#: States in which the FLOV latch datapath forwards flits.
FLOV_STATES = frozenset({PowerState.SLEEP, PowerState.WAKEUP})
