"""SimSnapshot protocol: freeze and rebuild a mid-run mesh.

Every stateful simulator component implements the paired methods

``snapshot_state() -> dict``
    A JSON-serializable description of the component's *mutable* state
    — never of anything the constructor derives from the config
    (neighbor tables, port lists, power models).  Components that hold
    packets receive a shared :class:`PacketTable` so each
    :class:`~repro.noc.types.Packet` is serialized exactly once no
    matter how many flits, queues, or ring slots reference it.

``restore_state(data) -> None``
    The inverse, applied to a freshly constructed component of the
    same configuration.  Restoring rebuilds shared object identity
    (flits of one packet point at one ``Packet``; wired channels stay
    aliased between neighboring routers) and files one entry per
    in-flight channel item into the owning kernel's timing wheels.

:meth:`Network.snapshot_state <repro.noc.network.Network.snapshot_state>`
freezes a whole mesh; :func:`repro.harness.runner.run_spec` wraps it in
the versioned checkpoint envelope (:mod:`repro.harness.checkpoint`).
The golden contract, enforced by ``tests/test_checkpoint.py``: for any
cycle C,

    run to horizon  ≡  snapshot at C → restore → run the remainder

by :class:`~repro.harness.runner.ExperimentResult` digest, on either
kernel (``active``/``batched``; ``dense`` restores too — its channels
simply bind no wheel).  See ``docs/checkpoint.md`` for the full
state-ownership map.

Versioning: :data:`SNAPSHOT_SCHEMA_VERSION` is bumped whenever the
schema *or simulator semantics* change incompatibly; restoring a stale
snapshot raises :class:`SnapshotError` (file-level loaders downgrade
that to a warning + recompute).
"""

from __future__ import annotations

import random
from typing import Any

from ..core.power_fsm import PowerState
from .types import Direction, Flit, Packet

__all__ = ["SNAPSHOT_SCHEMA_VERSION", "SnapshotError", "PacketTable",
           "PacketIndex", "check_schema", "encode_rng", "decode_rng",
           "encode_flit", "decode_flit", "encode_dirmap", "decode_dirmap",
           "encode_value", "decode_value"]

#: bump when the snapshot layout or simulator semantics change
#: incompatibly; stale snapshots are then rejected with SnapshotError
SNAPSHOT_SCHEMA_VERSION = 1


class SnapshotError(ValueError):
    """A snapshot is stale, torn, or does not match the target network."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise SnapshotError(msg)


def check_schema(data: Any, *, kind: str | None = None) -> None:
    """Validate the versioned envelope of a snapshot payload."""
    require(isinstance(data, dict), "snapshot must be a JSON object")
    version = data.get("schema")
    require(version == SNAPSHOT_SCHEMA_VERSION,
            f"snapshot schema {version!r} is not supported (this build "
            f"reads version {SNAPSHOT_SCHEMA_VERSION}); re-run from "
            f"scratch")
    if kind is not None:
        require(data.get("kind") == kind,
                f"snapshot kind {data.get('kind')!r} != expected {kind!r}")


# -- scalar codecs ------------------------------------------------------------

def encode_rng(rng: random.Random) -> list:
    """``random.Random`` internal state as a JSON-friendly list."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def decode_rng(rng: random.Random, data: Any) -> None:
    """Restore ``rng`` from :func:`encode_rng` output (tuples rebuilt)."""
    version, internal, gauss_next = data
    rng.setstate((version, tuple(internal), gauss_next))


def encode_value(v: Any) -> Any:
    """Tagged encoding for handshake payload values.

    Payload tuples mix ints, ``None``, :class:`PowerState` members, and
    nested tuples (PSR snapshots); JSON can't tell a tuple from a list
    or an enum from an int, so non-trivial values get a one-key tag.
    """
    if isinstance(v, PowerState):
        return {"ps": v.name}
    if isinstance(v, Direction):
        return {"dir": int(v)}
    if isinstance(v, tuple):
        return {"t": [encode_value(x) for x in v]}
    return v  # int | None | str | bool


def decode_value(v: Any) -> Any:
    if isinstance(v, dict):
        if "ps" in v:
            return PowerState[v["ps"]]
        if "dir" in v:
            return Direction(v["dir"])
        return tuple(decode_value(x) for x in v["t"])
    return v


def encode_dirmap(d: dict, enc=None) -> dict[str, Any]:
    """``{Direction: value}`` -> ``{name: encoded value}``."""
    if enc is None:
        return {k.name: v for k, v in d.items()}
    return {k.name: enc(v) for k, v in d.items()}


def decode_dirmap(data: dict[str, Any], dec=None) -> dict:
    if dec is None:
        return {Direction[k]: v for k, v in data.items()}
    return {Direction[k]: dec(v) for k, v in data.items()}


# -- packet / flit codecs -----------------------------------------------------

#: Packet fields serialized per pid, in order
_PACKET_FIELDS = ("pid", "src", "dest", "size", "vnet", "create_time",
                  "inject_time", "eject_time", "router_hops", "link_hops",
                  "flov_hops", "escaped", "payload")


class PacketTable:
    """Encode-side registry: each live Packet serialized once by pid."""

    def __init__(self) -> None:
        self._packets: dict[int, Packet] = {}

    def ref(self, pkt: Packet) -> int:
        """Register ``pkt`` and return its pid (the snapshot reference)."""
        self._packets[pkt.pid] = pkt
        return pkt.pid

    def encode(self) -> dict[str, list]:
        """``{pid: [field values]}`` for every referenced packet."""
        return {str(pid): [getattr(p, f) for f in _PACKET_FIELDS]
                for pid, p in self._packets.items()}


class PacketIndex:
    """Decode-side registry: one shared Packet instance per pid."""

    def __init__(self, table: dict[str, list]) -> None:
        self._table = table
        self._built: dict[int, Packet] = {}

    def get(self, pid: int) -> Packet:
        pkt = self._built.get(pid)
        if pkt is None:
            fields = self._table[str(pid)]
            pkt = Packet(**dict(zip(_PACKET_FIELDS, fields)))
            self._built[pid] = pkt
        return pkt


def encode_flit(flit: Flit, pkts: PacketTable) -> list:
    """Flit as ``[pid, index, vc, in_dir, ready, buffered_at, escape]``.

    ``is_head``/``is_tail`` are derived from index and packet size on
    decode, so they never drift from the packet they belong to.
    """
    return [pkts.ref(flit.packet), flit.index, flit.vc, int(flit.in_dir),
            flit.ready, flit.buffered_at, flit.escape]


def decode_flit(data: list, pkts: PacketIndex) -> Flit:
    pid, index, vc, in_dir, ready, buffered_at, escape = data
    pkt = pkts.get(pid)
    return Flit(packet=pkt, index=index, is_head=index == 0,
                is_tail=index == pkt.size - 1, vc=vc,
                in_dir=Direction(in_dir), ready=ready,
                buffered_at=buffered_at, escape=escape)
