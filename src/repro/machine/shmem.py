"""Distributed shared memory through the 36-bit physical space (§4.2).

"Each cell uses half of this address space for local memory space and
the other half for distributed shared memory space.  32 gigabytes of
shared memory space is divided into blocks equally corresponding to each
cell ...  To access the shared memory space, the MSC+ generates
parameters for remote load/store and writes them to the remote access
queue."

:class:`SharedMemory` gives a cell's program exactly that view: it forms
36-bit shared-space addresses for (cell, array, element) coordinates and
performs LOAD/STORE on them.  An address that resolves to the accessing
cell itself is served from local memory without any communication
("objects in local memory space can be accessed by the owner without
interprocessor communication"); a remote address becomes a hardware
remote load (blocking) or remote store (non-blocking, acknowledged by
the MSC+).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import AddressError
from repro.hardware.memory import AddressMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.program import CellContext, LocalArray


class SharedMemory:
    """One cell's window onto the machine-wide shared address space."""

    def __init__(self, ctx: "CellContext") -> None:
        self.ctx = ctx
        self.amap = AddressMap(
            num_cells=ctx.machine.config.num_cells,
            memory_per_cell=ctx.machine.config.memory_per_cell)
        self.local_accesses = 0
        self.remote_loads = 0
        self.remote_stores = 0

    # ------------------------------------------------------------------
    # Address formation
    # ------------------------------------------------------------------

    def address_of(self, cell: int, array: "LocalArray",
                   offset: int = 0) -> int:
        """The 36-bit shared-space physical address of one element of
        ``cell``'s instance of a symmetric array."""
        local = array.element_addr(offset)
        if local >= self.amap.shared_window_bytes:
            raise AddressError(
                f"local address {local:#x} lies beyond the exported "
                f"window of {self.amap.shared_window_bytes} bytes; only "
                "the first half of cell memory is mapped into shared "
                "space")
        return self.amap.shared_base(cell) + local

    def resolve(self, shared_addr: int) -> tuple[int, int]:
        """(owner cell, local byte offset) of a shared-space address —
        the MSC+'s upper-bits-to-cell-id translation."""
        return self.amap.resolve_shared(shared_addr)

    # ------------------------------------------------------------------
    # LOAD / STORE
    # ------------------------------------------------------------------

    def load(self, shared_addr: int, dtype=np.float64):
        """LOAD from shared space.

        Local addresses are plain memory reads; remote addresses stall
        the processor on a hardware remote load (privileged over
        PUT/GET in the MSC+ queues).
        """
        dtype = np.dtype(dtype)
        cell, local = self.resolve(shared_addr)
        if cell == self.ctx.pe:
            self.local_accesses += 1
            raw = self.ctx.hw.memory.read(local, dtype.itemsize)
        else:
            self.remote_loads += 1
            raw = self.ctx._remote_load(cell, local, dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype)[0]

    def store(self, shared_addr: int, value, dtype=np.float64) -> None:
        """STORE to shared space (non-blocking when remote; the MSC+
        acknowledges automatically)."""
        dtype = np.dtype(dtype)
        raw = np.array([value], dtype=dtype).tobytes()
        cell, local = self.resolve(shared_addr)
        if cell == self.ctx.pe:
            self.local_accesses += 1
            self.ctx.hw.memory.write(local, raw)
            return
        self.remote_stores += 1
        self.ctx._remote_store(cell, local, raw)

    def load_element(self, cell: int, array: "LocalArray", offset: int,
                     dtype=None):
        """Convenience: LOAD element ``offset`` of ``cell``'s array."""
        dtype = dtype or array.dtype
        return self.load(self.address_of(cell, array, offset), dtype)

    def store_element(self, cell: int, array: "LocalArray", offset: int,
                      value) -> None:
        """Convenience: STORE element ``offset`` of ``cell``'s array."""
        self.store(self.address_of(cell, array, offset), value, array.dtype)
