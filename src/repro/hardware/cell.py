"""Assembly of one AP1000+ cell (Figure 5).

A cell is a SuperSPARC (modelled abstractly — computation is charged by
the timing simulator, not executed cycle-by-cycle), DRAM behind the MC,
a write-through cache, and the MSC+ connecting the cell to the T-net.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.state import Stateful
from repro.hardware.cache import WriteThroughCache
from repro.hardware.mc import MemoryController
from repro.hardware.memory import CellMemory
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
    cache: WriteThroughCache | None
    msc: MSCPlus | None
    _wiring = frozenset({"memory"})

    @classmethod
    def build(cls, cell_id: int, tnet: TNet | None,
              memory_bytes: int = DEFAULT_MEMORY_BYTES,
              *, identity_map: bool = True) -> "HardwareCell":
        """Construct a cell wired to ``tnet``.

        With ``identity_map`` the MC maps the whole DRAM logical==physical
        (how the functional machine boots); pass False to set up page
        tables explicitly in tests.  Without a ``tnet`` the cell is its
        memory system only (DRAM, MC flags, communication registers):
        what the static analyzer's instant-delivery machine runs on.
        """
        memory = CellMemory(memory_bytes)
        mc = MemoryController(memory)
        if identity_map:
            mc.identity_map()
        if tnet is None:
            return cls(cell_id=cell_id, memory=memory, mc=mc, cache=None,
                       msc=None)
        cache = WriteThroughCache()
        msc = MSCPlus(cell_id, mc, tnet, cache=cache)
        return cls(cell_id=cell_id, memory=memory, mc=mc, cache=cache, msc=msc)
