"""Functional model of the S-net hardware barrier network.

The S-net is a dedicated synchronization network: every cell asserts a
"reached barrier" signal and the network reports back, to all cells at
once, when all of them have.  The hardware S-net synchronizes *all* cells;
barrier synchronization for a *group* of cells is done in software using
the communication registers (section 4.5), which is why the machine needs
both mechanisms.

The functional model is a counter per barrier "episode": cells arrive, and
the barrier fires when the arrival count reaches the machine size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import CommunicationError
from repro.core.state import Stateful


@dataclass
class SNet(Stateful):
    """All-cells hardware barrier with episode counting."""

    num_cells: int
    _arrived: set[int] = field(default_factory=set)
    episodes_completed: int = 0

    def arrive(self, cell_id: int) -> bool:
        """Mark ``cell_id`` as arrived at the current barrier episode.

        Returns True when this arrival completes the barrier (at which
        point the episode resets and every cell is released).
        """
        if not 0 <= cell_id < self.num_cells:
            raise CommunicationError(f"invalid cell id {cell_id} for S-net")
        if cell_id in self._arrived:
            raise CommunicationError(
                f"cell {cell_id} arrived twice at the same S-net barrier; "
                "barriers on the S-net are strictly phase-ordered"
            )
        self._arrived.add(cell_id)
        if len(self._arrived) == self.num_cells:
            self._arrived.clear()
            self.episodes_completed += 1
            return True
        return False

    def waiting(self) -> frozenset[int]:
        """Cells that have arrived and are waiting for the episode to fire."""
        return frozenset(self._arrived)

    @property
    def arrived_count(self) -> int:
        return len(self._arrived)
