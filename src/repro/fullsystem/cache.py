"""Set-associative cache arrays with LRU replacement.

Used for the L1 data caches and the L2 bank data arrays. Tracks only
line presence and coherence state — the simulator never models data
values (coherence correctness is checked structurally in tests).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, TypeVar

S = TypeVar("S")


class SetAssocCache(Generic[S]):
    """``sets x ways`` cache keyed by line id, storing a state per line."""

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int) -> None:
        lines = size_bytes // line_bytes
        if lines < assoc:
            raise ValueError("cache smaller than one set")
        self.assoc = assoc
        self.num_sets = lines // assoc
        self._sets: list[OrderedDict[int, S]] = [
            OrderedDict() for _ in range(self.num_sets)]

    def _set_of(self, line: int) -> OrderedDict[int, S]:
        return self._sets[line % self.num_sets]

    def get(self, line: int, *, touch: bool = True) -> S | None:
        """State of ``line`` or None; touching refreshes LRU position."""
        s = self._set_of(line)
        state = s.get(line)
        if state is not None and touch:
            s.move_to_end(line)
        return state

    def put(self, line: int, state: S) -> tuple[int, S] | None:
        """Insert/update a line; returns the evicted ``(line, state)`` if
        the set overflowed, else None."""
        s = self._set_of(line)
        if line in s:
            s[line] = state
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self.assoc:
            victim = s.popitem(last=False)
        s[line] = state
        return victim

    def update(self, line: int, state: S) -> None:
        """Update state without LRU movement; line must be present."""
        s = self._set_of(line)
        if line not in s:
            raise KeyError(line)
        s[line] = state

    def evict(self, line: int) -> S | None:
        """Remove a line; returns its state (None if absent)."""
        return self._set_of(line).pop(line, None)

    def __contains__(self, line: int) -> bool:
        return line in self._set_of(line)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)
