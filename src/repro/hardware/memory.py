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

import mmap
import struct
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
#: A word in DRAM: little-endian whatever the host is.
_WORD = struct.Struct("<I")
_read_word, _write_word = _WORD.unpack_from, _WORD.pack_into


#: Cell DRAM is carved out of anonymous mappings of this size: large
#: enough that a 1 024-cell machine asks the kernel 64 times, far below
#: what heuristic overcommit refuses in one request.
BANK_BYTES = 256 << 20


def _map_bank(nbytes: int) -> mmap.mmap:
    """One bank: private anonymous memory straight from the kernel.

    Mapped directly, not through ``np.zeros``: demand-zero whatever the
    allocator did before (freed 16 MB buffers raise glibc's mmap
    threshold, after which ``calloc`` memsets the next machine's DRAM),
    so untouched DRAM costs nothing and the library changes no malloc
    setting.  And without huge pages, which numpy advises for large
    arrays: on DRAM touched a few kilobytes per cell they zero 2 MiB
    per touch.
    """
    bank = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if nbytes > mmap.PAGESIZE:
        try:
            # From the second page on.  A bank whose pages do not all
            # carry one advice cannot be merged with its neighbours into
            # a single mapping, and must not be: fork() accounts for a
            # private mapping as a whole and refuses one larger than RAM
            # (a live 1 024-cell machine is 16 GiB of banks).
            bank.madvise(mmap.MADV_NOHUGEPAGE, mmap.PAGESIZE)
        except (AttributeError, OSError):
            pass                # not Linux, or a kernel without THP
    return bank


def zeroed_dram(count: int, size_bytes: int) -> list[np.ndarray]:
    """``count`` zeroed ``size_bytes`` byte buffers, carved out of banks.

    One bank is one mapping of up to :data:`BANK_BYTES` and its rows
    are the buffers.  A cell's buffer keeps its whole bank mapped for
    as long as it (or an array carved from it) is alive; only touched
    pages are resident.
    """
    if size_bytes <= 0:
        raise ConfigurationError(
            f"memory size must be positive, got {size_bytes}")
    per_bank = max(1, BANK_BYTES // size_bytes)
    buffers: list[np.ndarray] = []
    for first in range(0, count, per_bank):
        cells = min(per_bank, count - first)
        bank = _map_bank(cells * size_bytes)
        buffers.extend(np.frombuffer(bank, dtype=np.uint8)
                       .reshape(cells, size_bytes))
    return buffers


class CellMemory:
    """Byte-addressable DRAM of one cell."""

    def __init__(self, size_bytes: int,
                 buffer: np.ndarray | None = None) -> None:
        """``buffer`` is the zeroed DRAM to use (a row of a bank, see
        :func:`zeroed_dram`); without one the cell gets its own."""
        self.size_bytes = size_bytes
        self._buf = (zeroed_dram(1, size_bytes)[0] if buffer is None
                     else buffer)
        #: Byte and word accesses go through this one view of ``_buf``.
        self._view = self._buf.data

    def rebind(self, buffer: np.ndarray) -> None:
        """Make ``buffer`` this cell's DRAM, contents as they are: the
        one way to replace it, because an assignment to the array alone
        would leave the held view, and every access, on the old DRAM."""
        self._buf = buffer
        self._view = buffer.data

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
    # touches DRAM: the contiguous-stride forms reach it through
    # :meth:`read` / :meth:`write` and rely on their check.  Those two
    # and the word operations test the range in line and call
    # ``_check_range`` only to raise.

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr``."""
        end = addr + size
        if addr < 0 or size < 0 or end > self.size_bytes:
            self._check_range(addr, size)
        return self._view[addr:end].tobytes()

    def write(self, addr: int, data: bytes | np.ndarray) -> None:
        """Write ``data`` starting at ``addr``."""
        end = addr + len(data)
        if addr < 0 or end > self.size_bytes:
            self._check_range(addr, len(data))
        if isinstance(data, np.ndarray):
            self._buf[addr:end] = data
        else:
            self._view[addr:end] = data

    def read_word(self, addr: int) -> int:
        """Read a 4-byte little-endian word (used for flags)."""
        if addr < 0 or addr + WORD_BYTES > self.size_bytes:
            self._check_range(addr, WORD_BYTES)
        return _read_word(self._view, addr)[0]

    def write_word(self, addr: int, value: int) -> None:
        if addr < 0 or addr + WORD_BYTES > self.size_bytes:
            self._check_range(addr, WORD_BYTES)
        _write_word(self._view, addr, value & 0xFFFFFFFF)

    def increment_word(self, addr: int, by: int = 1) -> int:
        """Fetch-and-increment the word at ``addr`` in one access
        (``by`` increments at once).

        Returns the fetched value plus ``by``; the word stored wraps at
        2**32 like the 4-byte counter it is.
        """
        if addr < 0 or addr + WORD_BYTES > self.size_bytes:
            self._check_range(addr, WORD_BYTES)
        view = self._view
        value = _read_word(view, addr)[0] + by
        _write_word(view, addr, value & 0xFFFFFFFF)
        return value

    def view(self, addr: int, size: int) -> np.ndarray:
        """A live uint8 view of a memory range (no copy)."""
        self._check_range(addr, size)
        return self._buf[addr : addr + size]

    def array(self, addr: int, nbytes: int, shape: tuple[int, ...],
              dtype: np.dtype) -> np.ndarray:
        """A live ``shape`` array of ``dtype`` laid over the ``nbytes``
        at ``addr`` (no copy): one view, not a byte view recast."""
        self._check_range(addr, nbytes)
        return np.ndarray(shape, dtype, self._buf, addr)

    def _items(self, addr: int, stride: StrideSpec) -> np.ndarray:
        """The stride's items at ``addr`` as one live ``count x
        item_size`` view of DRAM."""
        self._check_range(addr, stride.extent_bytes)
        return np.ndarray((stride.count, stride.item_size), np.uint8,
                          self._buf, addr, (stride.skip, 1))

    def gather_items(self, addrs: np.ndarray, size: int) -> np.ndarray:
        """The ``size`` bytes at each of ``addrs`` (in range, as the
        caller checked) as one ``len(addrs) x size`` copy."""
        return self._buf[addrs[:, None] + np.arange(size)]

    def scatter_items(self, addrs: np.ndarray, size: int,
                      items: np.ndarray) -> None:
        """Write row ``i`` of ``items`` as the ``size`` bytes at
        ``addrs[i]`` (in range and not overlapping, as the caller
        checked)."""
        self._buf[addrs[:, None] + np.arange(size)] = items

    def gather(self, addr: int, stride: StrideSpec) -> bytes:
        """Collect ``stride.count`` items into one contiguous payload."""
        if stride.count <= 1 or stride.skip == stride.item_size:
            # Contiguous: the extent is the payload.
            return self.read(addr, stride.total_bytes)
        return self._items(addr, stride).tobytes()

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
        self._items(addr, stride)[:] = np.frombuffer(
            data, dtype=np.uint8).reshape(stride.count, stride.item_size)


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
