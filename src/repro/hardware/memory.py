"""Per-cell DRAM and the machine-wide physical address map.

Each AP1000+ cell carries 16 or 64 megabytes of DRAM on SIMMs.  The
SuperSPARC's 36-bit physical address space (64 gigabytes) is split in half:
the lower 32 GB is the cell's *local* space, and the upper 32 GB is the
*distributed shared memory* space, divided into equal blocks, one per cell
(section 4.2).  A normal LOAD/STORE whose physical address falls in another
cell's block is turned into a remote load/store by the MSC+.

The reproduction backs each cell's DRAM with a numpy byte buffer, so
higher layers (the functional machine, the VPP Fortran runtime) can carve
numpy array views out of real simulated memory and every PUT/GET moves
actual bytes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.errors import AddressError, ConfigurationError
from repro.network.packet import StrideSpec

#: Size of the full physical address space: 36 bits = 64 GB.
PHYSICAL_SPACE_BYTES = 1 << 36
#: The boundary between local space (below) and shared space (above).
SHARED_SPACE_BASE = 1 << 35
#: Word size used by flags and communication registers.
WORD_BYTES = 4


@functools.cache
def pin_mmap_threshold() -> None:
    """Keep multi-megabyte cell buffers on the mmap path.

    glibc's dynamic mmap threshold grows as 16 MB cell buffers are
    freed, after which fresh machines are served from the arena and
    ``calloc`` must really memset them — 1 GB of writes per 64-cell
    machine, ~64 GB per 4096-cell one (an unpinned second 1024-cell
    machine is OOM-killed on a 16 GB host).  Pinning the threshold keeps
    ``np.zeros`` on fresh demand-zero mappings, so untouched cell DRAM
    stays free.  Done once per process (cached), before the first
    cell's DRAM is allocated.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.mallopt(ctypes.c_int(-3),          # M_MMAP_THRESHOLD
                     ctypes.c_int(1 << 20))
    except (OSError, AttributeError):  # non-glibc platforms
        pass


class CellMemory:
    """Byte-addressable DRAM of one cell."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ConfigurationError(
                f"memory size must be positive, got {size_bytes}")
        pin_mmap_threshold()
        self._buf = np.zeros(size_bytes, dtype=np.uint8)
        self.size_bytes = size_bytes

    @property
    def buffer(self) -> np.ndarray:
        """The raw byte buffer (for carving out array views)."""
        return self._buf

    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size_bytes:
            raise AddressError(
                f"access [{addr}, {addr + size}) outside "
                f"{self.size_bytes}-byte DRAM"
            )

    # Every access is range-checked exactly once, by the method that
    # touches ``_buf``: the word and contiguous-stride forms reach DRAM
    # through :meth:`read` / :meth:`write` and rely on their check.  Those
    # two and :meth:`increment_word` test the range in line and call
    # ``_check_range`` only to raise.

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr``."""
        end = addr + size
        if addr < 0 or size < 0 or end > self.size_bytes:
            self._check_range(addr, size)
        return self._buf[addr:end].tobytes()

    def write(self, addr: int, data: bytes | np.ndarray) -> None:
        """Write ``data`` starting at ``addr``."""
        end = addr + len(data)
        if addr < 0 or end > self.size_bytes:
            self._check_range(addr, len(data))
        if isinstance(data, np.ndarray):
            self._buf[addr:end] = data
        else:
            self._buf.data[addr:end] = data

    def read_word(self, addr: int) -> int:
        """Read a 4-byte little-endian word (used for flags)."""
        return int.from_bytes(self.read(addr, WORD_BYTES), "little")

    def write_word(self, addr: int, value: int) -> None:
        self.write(addr, (value % (1 << 32)).to_bytes(WORD_BYTES, "little"))

    def increment_word(self, addr: int) -> int:
        """Fetch-and-increment the word at ``addr`` in one access.

        Returns the fetched value plus one; the word stored wraps at
        2**32 like the 4-byte counter it is.
        """
        end = addr + WORD_BYTES
        if addr < 0 or end > self.size_bytes:
            self._check_range(addr, WORD_BYTES)
        word = self._buf.data[addr:end]
        value = int.from_bytes(word, "little") + 1
        word[:] = (value & 0xFFFFFFFF).to_bytes(WORD_BYTES, "little")
        return value

    def view(self, addr: int, size: int) -> np.ndarray:
        """A live uint8 view of a memory range (no copy)."""
        self._check_range(addr, size)
        return self._buf[addr : addr + size]

    def gather(self, addr: int, stride: StrideSpec) -> bytes:
        """Collect ``stride.count`` items into one contiguous payload."""
        if stride.count <= 1 or stride.skip == stride.item_size:
            # Contiguous: the extent is the payload.
            return self.read(addr, stride.total_bytes)
        self._check_range(addr, stride.extent_bytes)
        parts = [
            self._buf[addr + off : addr + off + stride.item_size]
            for off in stride.offsets()
        ]
        return np.concatenate(parts).tobytes() if parts else b""

    def scatter(self, addr: int, stride: StrideSpec, data: bytes) -> None:
        """Spread a contiguous payload into ``stride``-spaced items."""
        if len(data) != stride.total_bytes:
            raise AddressError(
                f"scatter payload is {len(data)} bytes but stride describes "
                f"{stride.total_bytes}"
            )
        if stride.count <= 1 or stride.skip == stride.item_size:
            self.write(addr, data)
            return
        self._check_range(addr, stride.extent_bytes)
        raw = np.frombuffer(data, dtype=np.uint8)
        for i, off in enumerate(stride.offsets()):
            chunk = raw[i * stride.item_size : (i + 1) * stride.item_size]
            self._buf[addr + off : addr + off + stride.item_size] = chunk


@dataclass(frozen=True)
class AddressMap:
    """The machine-wide split of the 36-bit physical space.

    The shared half is divided into ``num_cells`` equal blocks.  Only the
    first ``shared_window_bytes`` of each block is backed by that cell's
    DRAM ("half of the local memory is mapped for shared space" in the
    64 MB / 1024-cell example of section 4.2).
    """

    num_cells: int
    memory_per_cell: int

    def __post_init__(self) -> None:
        if self.num_cells < 1:
            raise ConfigurationError("need at least one cell")
        if self.memory_per_cell < 2 * WORD_BYTES:
            raise ConfigurationError("cell memory too small")

    @property
    def block_size(self) -> int:
        """Size of one cell's slot in shared space."""
        return SHARED_SPACE_BASE // self.num_cells

    @property
    def shared_window_bytes(self) -> int:
        """How much of each cell's DRAM is exported into shared space."""
        return min(self.memory_per_cell // 2, self.block_size)

    def is_shared(self, paddr: int) -> bool:
        if not 0 <= paddr < PHYSICAL_SPACE_BYTES:
            raise AddressError(
                f"physical address {paddr:#x} outside 36-bit space")
        return paddr >= SHARED_SPACE_BASE

    def shared_base(self, cell_id: int) -> int:
        """Physical base address of ``cell_id``'s exported window."""
        if not 0 <= cell_id < self.num_cells:
            raise AddressError(
                f"no cell {cell_id} in {self.num_cells}-cell machine")
        return SHARED_SPACE_BASE + cell_id * self.block_size

    def resolve_shared(self, paddr: int) -> tuple[int, int]:
        """Map a shared-space physical address to (owner cell, local offset).

        This is the MSC+ translation of "the upper bits of physical
        addresses ... to destination cell IDs and the other bits to local
        addresses at the destination cell".
        """
        if not self.is_shared(paddr):
            raise AddressError(
                f"{paddr:#x} is in local space, not shared space")
        offset_in_shared = paddr - SHARED_SPACE_BASE
        cell_id = offset_in_shared // self.block_size
        local_offset = offset_in_shared % self.block_size
        if local_offset >= self.shared_window_bytes:
            raise AddressError(
                f"shared address {paddr:#x} beyond cell {cell_id}'s exported "
                f"window of {self.shared_window_bytes} bytes"
            )
        return cell_id, local_offset
