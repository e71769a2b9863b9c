"""MMU and TLB of the memory controller (MC).

PUT/GET parameters carry *logical* addresses: "Using the MMU in the MC,
the MSC+ converts the logical address to a physical address.  The MC has a
translation lookaside buffer (TLB), which is direct-mapped and has 256
entries for every 4-kilobyte page and 64 entries for every 256-kilobyte
page" (section 4.1).  A PUT/GET naming an unmapped logical address raises a
page fault; if the fault happens in a *remote* cell mid-transfer, the MSC+
interrupts the OS and pulls the remaining message from the network.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import AddressError, PageFaultError, ProtectionError
from repro.core.state import Stateful

PAGE_4K = 4 * 1024
PAGE_256K = 256 * 1024
TLB_ENTRIES_4K = 256
TLB_ENTRIES_256K = 64


@dataclass(frozen=True)
class PageEntry:
    """One page-table entry: logical page -> physical frame."""

    physical_base: int
    size: int  # PAGE_4K or PAGE_256K
    writable: bool = True


class _DirectMappedTLB(Stateful):
    """A direct-mapped TLB for one page size: slot ``page % entries``
    holds ``(page, entry)``.  :meth:`MMU._lookup` probes it and counts
    the hit or miss."""

    def __init__(self, entries: int, page_size: int) -> None:
        self.entries = entries
        self.page_size = page_size
        self._slots: dict[int, tuple[int, PageEntry]] = {}
        self.hits = 0
        self.misses = 0

    def fill(self, page_number: int, entry: PageEntry) -> None:
        self._slots[page_number % self.entries] = (page_number, entry)

    def flush(self) -> None:
        self._slots.clear()


@dataclass
class MMU(Stateful):
    """Page table plus the MC's two direct-mapped TLBs.

    The page table maps logical page numbers to :class:`PageEntry` values;
    a miss in both TLBs triggers a table walk (counted, so timing models
    can charge the walker), and a miss in the table raises
    :class:`PageFaultError`.  An MMU may boot on read-only tables it
    shares with others (the identity map of its DRAM size): it copies
    them at its first map or unmap, so the change is its own.
    """

    tlb_4k: _DirectMappedTLB = field(
        default_factory=lambda: _DirectMappedTLB(TLB_ENTRIES_4K, PAGE_4K)
    )
    tlb_256k: _DirectMappedTLB = field(
        default_factory=lambda: _DirectMappedTLB(TLB_ENTRIES_256K, PAGE_256K)
    )
    _table_4k: Mapping[int, PageEntry] = field(default_factory=dict)
    _table_256k: Mapping[int, PageEntry] = field(default_factory=dict)
    #: 256 KB page numbers that have had a 4 KB mapping installed inside
    #: them.  Such a mapping takes precedence over the large page, so a
    #: range check may skip a large page's extent only outside this set.
    _fine_grained: Set[int] = field(default_factory=set)
    walks: int = 0
    faults: int = 0
    #: The page tables are boot-time layout a fresh machine rebuilds.
    _wiring = frozenset({"_table_4k", "_table_256k", "_fine_grained"})

    def _own_tables(self) -> tuple[dict[int, PageEntry],
                                   dict[int, PageEntry], set[int]]:
        """The tables, to change: copies of the shared read-only ones
        this MMU booted on, made at the first call."""
        table_4k, table_256k = self._table_4k, self._table_256k
        fine_grained = self._fine_grained
        if not (isinstance(table_4k, dict) and isinstance(table_256k, dict)
                and isinstance(fine_grained, set)):
            table_4k, table_256k = dict(table_4k), dict(table_256k)
            fine_grained = set(fine_grained)
            self._table_4k, self._table_256k = table_4k, table_256k
            self._fine_grained = fine_grained
        return table_4k, table_256k, fine_grained

    def map_page(self, logical_base: int, physical_base: int,
                 size: int = PAGE_4K, writable: bool = True) -> None:
        """Install one page mapping.  ``logical_base`` must be page-aligned."""
        if size not in (PAGE_4K, PAGE_256K):
            raise AddressError(f"unsupported page size {size}")
        if logical_base % size or physical_base % size:
            raise AddressError("page bases must be aligned to the page size")
        entry = PageEntry(physical_base=physical_base, size=size,
                          writable=writable)
        table_4k, table_256k, fine_grained = self._own_tables()
        if size == PAGE_4K:
            table_4k[logical_base // size] = entry
            fine_grained.add(logical_base // PAGE_256K)
        else:
            table_256k[logical_base // size] = entry

    def map_range(self, logical_base: int, physical_base: int, size: int,
                  page_size: int = PAGE_4K, writable: bool = True) -> None:
        """Identity-shaped mapping of a whole range with one page size.

        Every page overlapping ``[logical_base, logical_base + size)`` is
        mapped at the same logical-to-physical offset, which must itself
        be a multiple of the page size.
        """
        if size <= 0:
            raise AddressError("mapped range must be non-empty")
        if page_size not in (PAGE_4K, PAGE_256K):
            raise AddressError(f"unsupported page size {page_size}")
        offset = physical_base - logical_base
        if offset % page_size:
            raise AddressError("page bases must be aligned to the page size")
        first = logical_base // page_size
        last = (logical_base + size - 1) // page_size
        entries = {
            number: PageEntry(number * page_size + offset, page_size, writable)
            for number in range(first, last + 1)}
        table_4k, table_256k, fine_grained = self._own_tables()
        if page_size == PAGE_4K:
            table_4k.update(entries)
            fine_grained.update(
                range(logical_base // PAGE_256K,
                      (logical_base + size - 1) // PAGE_256K + 1))
        else:
            table_256k.update(entries)

    def unmap_page(self, logical_base: int, size: int = PAGE_4K) -> None:
        table_4k, table_256k, _ = self._own_tables()
        table = table_4k if size == PAGE_4K else table_256k
        table.pop(logical_base // size, None)
        tlb = self.tlb_4k if size == PAGE_4K else self.tlb_256k
        tlb.flush()

    def translate(self, logical: int, *, write: bool = False) -> int:
        """Translate one logical address, filling the TLB on a walk."""
        entry = self._lookup(logical)
        if write and not entry.writable:
            raise ProtectionError(f"write to read-only page at {logical:#x}")
        page_size = entry.size
        return entry.physical_base + (logical % page_size)

    def translate_range(self, logical: int, size: int, *,
                        write: bool = False) -> int:
        """Translate a range, verifying every touched page is mapped.

        Returns the physical address of the first byte.  This models the
        MSC+ checking DMA parameters for illegal addresses *in hardware*
        because user-level command issue bypasses the operating system
        (section 3.2).
        """
        if size < 0:
            raise AddressError("negative range size")
        fine_grained = self._fine_grained
        probe, end = logical, logical + size
        while True:
            entry = self._lookup(probe)
            if write and not entry.writable:
                raise ProtectionError(
                    f"write to read-only page at {probe:#x}")
            if probe == logical:
                first = entry.physical_base + logical % entry.size
            # Step to the end of what this entry vouches for: its whole
            # extent, unless it is a large page that a 4 KB mapping may
            # override part of.
            step = entry.size
            if step != PAGE_4K and probe // PAGE_256K in fine_grained:
                step = PAGE_4K
            probe = (probe // step + 1) * step
            if probe >= end:
                return first

    def plan_page(self, page: int, write: bool) -> int | None:
        """The physical base of 256 KB page number ``page`` for a run of
        lookups inside it (one or more writing, where ``write``),
        changing nothing; None if one would fault, be refused, meet a
        4 KB mapping or a TLB entry the page table no longer holds.
        :meth:`charge_page` counts the lookups once the run is issued."""
        entry = self._table_256k.get(page)
        tlb = self.tlb_256k
        slot = tlb._slots.get(page % tlb.entries)
        if (entry is None or page in self._fine_grained
                or (write and not entry.writable)
                or (slot is not None and slot[0] == page
                    and slot[1] != entry)):
            return None
        return entry.physical_base

    def plan_run(self, logical: np.ndarray, write: np.ndarray,
                 size: int) -> np.ndarray | None:
        """Where a run of lookups that may span pages lands, changing
        nothing: the physical address of each of ``logical`` (``size``
        bytes from it, to be written where ``write``; in any order), or
        None if one would leave its page or :meth:`plan_page` refuses a
        page.  :meth:`charge_run` counts the lookups, in the order they
        come, once the run is issued."""
        numbers = logical // PAGE_256K
        offset = logical - numbers * PAGE_256K
        if int(numbers.min()) < 0 or offset.max() + size > PAGE_256K:
            return None
        pages, which = np.unique(numbers, return_inverse=True)
        written = np.bincount(which, write, len(pages)) > 0
        bases = []
        for page, writes in zip(pages.tolist(), written.tolist()):
            base = self.plan_page(page, writes)
            if base is None:
                return None
            bases.append(base)
        return np.asarray(bases, np.int64)[which] + offset

    def charge_page(self, logical: int, lookups: int) -> None:
        """Count the TLB traffic of ``lookups`` lookups in the page of
        ``logical`` that :meth:`plan_page` accepted: the first looks up
        (a hit, or a miss, walk and fill), and every other one hits."""
        self._lookup(logical)
        self.tlb_256k.hits += lookups - 1

    def charge_run(self, logical: np.ndarray) -> None:
        """Count the TLB traffic of a run :meth:`plan_run` accepted as
        its lookups one by one count it: the first of each stretch on
        one page looks up (a hit, or a miss, walk and fill), and every
        other one hits."""
        pages = logical // PAGE_256K
        changes = np.flatnonzero(pages[1:] != pages[:-1]) + 1
        self._lookup(int(logical[0]))
        for address in logical[changes].tolist():
            self._lookup(address)
        self.tlb_256k.hits += len(logical) - 1 - len(changes)

    def _lookup(self, logical: int) -> PageEntry:
        if logical < 0:
            self.faults += 1
            raise PageFaultError(f"negative logical address {logical:#x}")
        # A 4 KB entry can only exist inside a large page that had a
        # 4 KB mapping installed; elsewhere that TLB is not probed.
        large_page = logical // PAGE_256K
        if large_page in self._fine_grained:
            tlb, page = self.tlb_4k, logical // PAGE_4K
            slot = tlb._slots.get(page % tlb.entries)
            if slot is not None and slot[0] == page:
                tlb.hits += 1
                return slot[1]
            tlb.misses += 1
        tlb = self.tlb_256k
        slot = tlb._slots.get(large_page % tlb.entries)
        if slot is not None and slot[0] == large_page:
            tlb.hits += 1
            return slot[1]
        tlb.misses += 1
        # TLB miss: hardware walker searches the page tables.
        self.walks += 1
        entry = self._table_4k.get(logical // PAGE_4K)
        if entry is not None:
            self.tlb_4k.fill(logical // PAGE_4K, entry)
            return entry
        entry = self._table_256k.get(large_page)
        if entry is not None:
            self.tlb_256k.fill(large_page, entry)
            return entry
        self.faults += 1
        raise PageFaultError(f"no mapping for logical address {logical:#x}")

    @property
    def tlb_hits(self) -> int:
        return self.tlb_4k.hits + self.tlb_256k.hits

    @property
    def tlb_misses(self) -> int:
        return self.tlb_4k.misses + self.tlb_256k.misses
