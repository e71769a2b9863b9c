"""The MC memory controller.

The MC sits between the SuperSPARC and DRAM on the V-Bus (Figure 5).  For
the PUT/GET architecture it contributes three things:

* an **MMU with its own TLB** that the MSC+ uses to translate the logical
  addresses carried in PUT/GET commands and packets;
* a **flag incrementer** — a fetch-and-increment unit the MSC+ invokes
  when a send or receive DMA completes, so flag update is combined with
  data transfer instead of needing a separate flag message;
* the cell's **communication registers** (section 4.4).

A flag is a normal user variable: its address is logical, the MC
translates it with its own MMU, and a flag address of 0 means "no flag"
(section 4.1, "Flag update combined with data transfer").
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.core.errors import AddressError
from repro.core.state import Stateful
from repro.hardware.comm_registers import CommRegisterFile
from repro.hardware.memory import WORD_BYTES, CellMemory
from repro.hardware.mmu import MMU, PAGE_4K, PAGE_256K, PageEntry

#: Flag address 0 disables the flag update for that side of the transfer.
NO_FLAG = 0


@functools.lru_cache(maxsize=8)
def _identity_tables(size_bytes: int) -> tuple[
        Mapping[int, PageEntry], Mapping[int, PageEntry], Set[int]]:
    """The boot page tables of a ``size_bytes`` DRAM: ``(4 KB table,
    256 KB table, fine-grained large pages)`` of an MMU that maps
    exactly ``[0, size_bytes)`` logical==physical, read-only.

    Large (256 KB) pages cover the bulk, 4 KB pages the remainder, so
    the mapping ends exactly at the DRAM boundary: an access past it
    misses the page table and raises a proper page fault (the
    protection behaviour of section 4.1), rather than over-mapping
    into nonexistent memory.  Every MMU booted on them shares them
    until its first map or unmap copies them.
    """
    mmu = MMU()
    bulk = (size_bytes // PAGE_256K) * PAGE_256K
    if bulk:
        mmu.map_range(0, 0, bulk, page_size=PAGE_256K)
    if size_bytes > bulk:
        mmu.map_range(bulk, bulk, size_bytes - bulk, page_size=PAGE_4K)
    return (MappingProxyType(mmu._table_4k),
            MappingProxyType(mmu._table_256k),
            frozenset(mmu._fine_grained))


def identity_mmu(size_bytes: int) -> MMU:
    """An MMU booted on the identity tables of a ``size_bytes`` DRAM
    (:func:`_identity_tables`)."""
    table_4k, table_256k, fine_grained = _identity_tables(size_bytes)
    return MMU(_table_4k=table_4k, _table_256k=table_256k,
               _fine_grained=fine_grained)


@dataclass
class MemoryController(Stateful):
    """One cell's MC: DRAM port, MMU, flag incrementer, comm registers."""

    memory: CellMemory
    mmu: MMU = field(default_factory=MMU)
    registers: CommRegisterFile = field(default_factory=CommRegisterFile)
    flag_increments: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    _wiring = frozenset({"memory"})

    # ------------------------------------------------------------------
    # Translated DRAM access (used by the MSC+ DMA paths)
    # ------------------------------------------------------------------

    def translate(self, logical: int, size: int, *, write: bool) -> int:
        """Translate a logical range for a DMA, checking every page."""
        return self.mmu.translate_range(logical, size, write=write)

    def read(self, logical: int, size: int) -> bytes:
        paddr = self.translate(logical, size, write=False)
        self.dram_reads += 1
        return self.memory.read(paddr, size)

    def write(self, logical: int, data: bytes) -> None:
        paddr = self.translate(logical, len(data), write=True)
        self.dram_writes += 1
        self.memory.write(paddr, data)

    # ------------------------------------------------------------------
    # Flag incrementer ("fetch and increment", section 3.2)
    # ------------------------------------------------------------------

    def increment_flag(self, flag_logical_addr: int) -> int | None:
        """Fetch-and-increment the word at a logical flag address.

        Returns the *new* value, or ``None`` when the address is 0 (no
        flag requested).
        """
        if flag_logical_addr == NO_FLAG:
            return None
        value = self.memory.increment_word(
            self.mmu.translate(flag_logical_addr, write=True))
        self.flag_increments += 1
        return value

    def increment_flag_run(self, paddr: int, times: int) -> None:
        """``times`` increments of the flag word at physical ``paddr``
        (the caller translated it, once per increment) in one access."""
        self.memory.increment_word(paddr, times)
        self.flag_increments += times

    def read_flag(self, flag_logical_addr: int) -> int:
        """Read a flag's current value (the program's flag-check load)."""
        if flag_logical_addr == NO_FLAG:
            raise AddressError(
                "cannot read flag at address 0 (means 'no flag')")
        paddr = self.mmu.translate(flag_logical_addr, write=False)
        return self.memory.read_word(paddr)

    def write_flag(self, flag_logical_addr: int, value: int) -> None:
        """Reset a flag (programs clear flags between communication phases)."""
        if flag_logical_addr == NO_FLAG:
            raise AddressError(
                "cannot write flag at address 0 (means 'no flag')")
        paddr = self.mmu.translate(flag_logical_addr, write=True)
        self.memory.write_word(paddr, value)


def allocate_flag_area(mc: MemoryController, base: int,
                       count: int) -> list[int]:
    """Carve ``count`` word-sized flags out of memory starting at ``base``.

    Returns the logical addresses; flags start at zero.  Address 0 is never
    returned because it is the "no flag" sentinel, so ``base`` must be > 0.
    """
    if base <= 0:
        raise AddressError("flag area must start above address 0")
    addrs = [base + i * WORD_BYTES for i in range(count)]
    for addr in addrs:
        mc.write_flag(addr, 0)
    return addrs
