"""Send and receive DMA engines of the MSC+.

The send DMA controller moves 1 word to 1 megaword (4 bytes - 4 MB) per
operation, gathering one-dimensional strides on the way out; the receive
DMA scatters into the destination cell's memory.  The functional model
performs the copy against :class:`~repro.hardware.memory.CellMemory` and
keeps counters that the benchmarks use (operations, bytes, largest
transfer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import CommunicationError
from repro.core.state import Stateful
from repro.hardware.memory import CellMemory
from repro.network.packet import StrideSpec

#: Hardware limits of one DMA operation (section 4.1).
MIN_DMA_BYTES = 4
MAX_DMA_BYTES = 4 * 1024 * 1024


@dataclass
class DMAEngine(Stateful):
    """One direction (send or receive) of the MSC+ DMA."""

    name: str
    operations: int = 0
    bytes_moved: int = 0
    largest_transfer: int = 0

    def _account(self, nbytes: int) -> None:
        if nbytes == 0:
            return
        if not MIN_DMA_BYTES <= nbytes <= MAX_DMA_BYTES:
            raise CommunicationError(
                f"{self.name} DMA transfer of {nbytes} bytes outside the "
                f"hardware range [{MIN_DMA_BYTES}, {MAX_DMA_BYTES}]"
            )
        self.operations += 1
        self.bytes_moved += nbytes
        if nbytes > self.largest_transfer:
            self.largest_transfer = nbytes

    def account_run(self, nbytes: int, times: int) -> None:
        """Count ``times`` operations of ``nbytes`` each, as
        :meth:`_account` counts them one by one (the caller checked
        ``nbytes`` against the hardware range)."""
        if times and nbytes:
            self.operations += times
            self.bytes_moved += nbytes * times
            if nbytes > self.largest_transfer:
                self.largest_transfer = nbytes

    def gather(self, memory: CellMemory, addr: int,
               stride: StrideSpec) -> bytes:
        """Read a (possibly strided) block out of memory as one payload."""
        data = memory.gather(addr, stride)
        self._account(len(data))
        return data

    def scatter(self, memory: CellMemory, addr: int, stride: StrideSpec,
                data: bytes) -> None:
        """Write one payload into memory with the receive-side stride."""
        self._account(len(data))
        memory.scatter(addr, stride, data)
