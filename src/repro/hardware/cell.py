"""Assembly of one AP1000+ cell (Figure 5).

A cell is a SuperSPARC (modelled abstractly — computation is charged by
the timing simulator, not executed cycle-by-cycle), DRAM behind the MC,
a write-through cache, and the MSC+ connecting the cell to the T-net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import Stateful
from repro.hardware.cache import WriteThroughCache
from repro.hardware.mc import MemoryController, identity_mmu
from repro.hardware.memory import CellMemory, zeroed_dram
from repro.hardware.msc import MSCPlus
from repro.network.tnet import TNet

#: Default DRAM per cell used by the functional machine.  The real machine
#: ships 16 or 64 MB; the functional default is small because simulated
#: applications allocate only what they touch.
DEFAULT_MEMORY_BYTES = 16 * 1024 * 1024


@dataclass
class HardwareCell(Stateful):
    """The hardware complement of one cell."""

    cell_id: int
    memory: CellMemory
    mc: MemoryController
    cache: WriteThroughCache
    msc: MSCPlus
    _wiring = frozenset({"memory"})

    @classmethod
    def build(cls, cell_id: int, tnet: TNet,
              memory_bytes: int = DEFAULT_MEMORY_BYTES,
              *, identity_map: bool = True,
              dram: np.ndarray | None = None) -> "HardwareCell":
        """Construct a cell wired to ``tnet``.

        With ``identity_map`` the MC maps the whole DRAM logical==physical
        (how the functional machine boots); pass False to set up page
        tables explicitly in tests.  ``dram`` is the zeroed buffer to use
        as DRAM; without one the cell allocates its own.
        """
        memory = CellMemory(memory_bytes, dram)
        mc = (MemoryController(memory, identity_mmu(memory_bytes))
              if identity_map else MemoryController(memory))
        cache = WriteThroughCache()
        return cls(cell_id, memory, mc, cache,
                   MSCPlus(cell_id, mc, tnet, cache=cache))


def boot_cells(count: int, tnet: TNet,
               memory_bytes: int = DEFAULT_MEMORY_BYTES
               ) -> list[HardwareCell]:
    """The cells ``0 .. count - 1`` of one machine: how every machine
    boots.

    Each cell is what :meth:`HardwareCell.build` makes, but what is
    identical across cells is made once: the DRAM buffers are rows of a
    few zeroed banks (:func:`~repro.hardware.memory.zeroed_dram`), and
    every MMU boots on the one set of page tables of its DRAM size
    (:func:`~repro.hardware.mc.identity_mmu`).
    """
    return [HardwareCell.build(pe, tnet, memory_bytes, dram=dram)
            for pe, dram in enumerate(zeroed_dram(count, memory_bytes))]
