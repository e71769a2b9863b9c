"""Unit tests for the MC's MMU and direct-mapped TLBs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AddressError, PageFaultError, ProtectionError
from repro.hardware.mc import MemoryController, identity_mmu
from repro.hardware.memory import CellMemory
from repro.hardware.mmu import (
    MMU,
    PAGE_4K,
    PAGE_256K,
    TLB_ENTRIES_4K,
    TLB_ENTRIES_256K,
)


@pytest.fixture
def mmu():
    m = MMU()
    m.map_range(0, 0x100000, 64 * 1024)  # 16 4K pages at offset 1 MB
    return m


class TestTranslation:
    def test_identity_offset(self, mmu):
        assert mmu.translate(0) == 0x100000
        assert mmu.translate(4097) == 0x100000 + 4097

    def test_unmapped_faults(self, mmu):
        with pytest.raises(PageFaultError):
            mmu.translate(1 << 30)
        assert mmu.faults == 1

    def test_negative_address_faults(self, mmu):
        with pytest.raises(PageFaultError):
            mmu.translate(-8)

    def test_range_translation_checks_every_page(self, mmu):
        # Range crossing into unmapped territory must fault even though
        # the first byte is mapped.
        with pytest.raises(PageFaultError):
            mmu.translate_range(60 * 1024, 8 * 1024)

    def test_range_translation_ok(self, mmu):
        assert mmu.translate_range(0, 64 * 1024) == 0x100000

    def test_write_to_readonly_page(self):
        m = MMU()
        m.map_page(0, 0, writable=False)
        m.translate(16)  # read ok
        with pytest.raises(ProtectionError):
            m.translate(16, write=True)

    def test_unaligned_mapping_rejected(self):
        with pytest.raises(AddressError):
            MMU().map_page(100, 0)

    def test_bad_page_size_rejected(self):
        with pytest.raises(AddressError):
            MMU().map_page(0, 0, size=8192)


class TestTLB:
    def test_first_access_misses_then_hits(self, mmu):
        mmu.translate(0)
        misses = mmu.tlb_misses
        mmu.translate(8)
        assert mmu.tlb_hits >= 1
        assert mmu.tlb_misses == misses

    def test_walk_counted_on_miss(self, mmu):
        before = mmu.walks
        mmu.translate(0)
        assert mmu.walks == before + 1

    def test_direct_mapped_conflict_eviction(self):
        m = MMU()
        stride = TLB_ENTRIES_4K * PAGE_4K  # same TLB index
        m.map_page(0, 0)
        m.map_page(stride, PAGE_4K)
        m.translate(0)
        m.translate(stride)      # evicts page 0's entry
        walks = m.walks
        m.translate(0)           # must walk again
        assert m.walks == walks + 1

    def test_large_pages_use_256k_tlb(self):
        m = MMU()
        m.map_page(0, 0, size=PAGE_256K)
        m.translate(PAGE_256K - 1)
        assert m.tlb_256k.hits + m.tlb_256k.misses >= 1
        assert m.translate(100) == 100

    def test_tlb_sizes_match_hardware(self):
        m = MMU()
        assert m.tlb_4k.entries == TLB_ENTRIES_4K == 256
        assert m.tlb_256k.entries == TLB_ENTRIES_256K == 64

    def test_unmap_flushes(self):
        m = MMU()
        m.map_page(0, 0)
        m.translate(0)
        m.unmap_page(0)
        with pytest.raises(PageFaultError):
            m.translate(0)


# ----------------------------------------------------------------------
# Oracles: the per-page loops that map_range / translate_range replaced
# ----------------------------------------------------------------------

SPACE = 4 * PAGE_256K                   # logical space the tables cover
PAGES_4K = SPACE // PAGE_4K


def probe_every_4k(mmu, logical, size, write):
    """translate_range as one translate per 4 KB of the range."""
    if size < 0:
        raise AddressError("negative range size")
    first = mmu.translate(logical, write=write)
    probe = (logical // PAGE_4K + 1) * PAGE_4K
    while probe < logical + size:
        mmu.translate(probe, write=write)
        probe += PAGE_4K
    return first


def map_page_by_page(mmu, logical_base, physical_base, size, page_size,
                     writable):
    """map_range as one map_page per page of the range."""
    if size <= 0:
        raise AddressError("mapped range must be non-empty")
    page = (logical_base // page_size) * page_size
    while page < logical_base + size:
        mmu.map_page(page, page + physical_base - logical_base,
                     size=page_size, writable=writable)
        page += page_size


def outcome(call):
    try:
        return call()
    except (AddressError, PageFaultError, ProtectionError) as exc:
        return type(exc)


def apply_table_op(mmu, op):
    if op[0] == "map_range":
        mmu.map_range(*op[1:])
        return
    kind, page, frame, writable = op
    if kind == "map4k":
        mmu.map_page(page * PAGE_4K, frame * PAGE_4K, writable=writable)
    elif kind == "map256k":
        page %= SPACE // PAGE_256K
        mmu.map_page(page * PAGE_256K, frame * PAGE_256K, size=PAGE_256K,
                     writable=writable)
    elif kind == "unmap4k":
        mmu.unmap_page(page * PAGE_4K)
    else:
        mmu.unmap_page(page % (SPACE // PAGE_256K) * PAGE_256K,
                       size=PAGE_256K)


def assert_ranges_agree(steps):
    """Apply table edits and range checks to two MMUs, one checked by
    translate_range and one by the per-4 KB oracle; both must return or
    raise the same, and charge the same walks and faults."""
    mmu, reference = MMU(), MMU()
    for step in steps:
        if step[0] == "range":
            _, logical, size, write = step
            got = outcome(
                lambda: mmu.translate_range(logical, size, write=write))
            want = outcome(
                lambda: probe_every_4k(reference, logical, size, write))
            assert got == want, step
            assert (mmu.walks, mmu.faults) == \
                (reference.walks, reference.faults), step
        else:
            apply_table_op(mmu, step)
            apply_table_op(reference, step)


table_ops = st.tuples(
    st.sampled_from(["map4k", "map256k", "unmap4k", "unmap256k"]),
    st.integers(0, PAGES_4K - 1), st.integers(0, 63), st.booleans())
range_checks = st.tuples(
    st.just("range"), st.integers(-PAGE_4K, SPACE + PAGE_4K),
    st.one_of(st.integers(-1, 3 * PAGE_4K), st.integers(0, SPACE),
              # sizes that end exactly on a page boundary
              st.integers(0, PAGES_4K).map(lambda n: n * PAGE_4K)),
    st.booleans())


class TestTranslateRangeOracle:
    @given(steps=st.lists(st.one_of(table_ops, range_checks), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_random_tables_and_ranges(self, steps):
        assert_ranges_agree(steps)

    @pytest.mark.parametrize("logical, size, write", [
        (0, 0, False),                              # size == 0
        (PAGE_256K - 8, 0, True),
        (0, PAGE_256K, True),                       # ends on a boundary
        (4 * PAGE_4K, 4 * PAGE_4K, False),
        (0, 2 * PAGE_256K, False),                  # large then small pages
        (PAGE_256K - 16, 32, True),
        (0, 3 * PAGE_256K, False),                  # hole inside the range
        (2 * PAGE_256K - 8, 16, False),
        (PAGE_256K, PAGE_256K, True),               # read-only page inside
        (PAGE_256K + 9 * PAGE_4K, 8, True),
        (0, PAGE_256K, False),                      # 4 KB overrides 256 KB
        (5 * PAGE_4K, 8, True),
        (3 * PAGE_256K, PAGE_256K + 1, False),      # runs off the end
    ])
    @pytest.mark.parametrize("warm", [False, True])
    def test_named_cases(self, logical, size, write, warm):
        # A 4 KB mapping inside a large page is seen on a table walk or
        # through the 4 KB TLB, so each case also runs with those TLB
        # entries filled.
        touch = [("range", 5 * PAGE_4K, 8, False),
                 ("range", (64 + 9) * PAGE_4K, 8, False)] if warm else []
        table = [
            ("map256k", 0, 2, True),
            ("map4k", 5, 40, False),                # inside 256 KB page 0
            *[("map4k", 64 + n, n, n != 9) for n in range(64)],
            ("map256k", 3, 1, True),                # page 2 is a hole
        ]
        assert_ranges_agree(
            [*table, *touch, ("range", logical, size, write),
             ("unmap4k", 5, 0, True), ("range", logical, size, write)])


class TestMapRangeOracle:
    @given(logical_base=st.integers(0, SPACE),
           offset=st.one_of(
               st.integers(-4, 4).map(lambda n: n * PAGE_256K),
               st.integers(-64, 64).map(lambda n: n * PAGE_4K),
               st.integers(-PAGE_4K, PAGE_4K)),
           size=st.integers(-1, SPACE),
           page_size=st.sampled_from([PAGE_4K, PAGE_256K, 8192, 1000]),
           writable=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_a_loop_of_map_page(self, logical_base, offset, size,
                                       page_size, writable):
        mmu, reference = MMU(), MMU()
        args = (logical_base, logical_base + offset, size, page_size,
                writable)
        got = outcome(lambda: mmu.map_range(*args))
        want = outcome(lambda: map_page_by_page(reference, *args))
        assert got == want
        assert mmu._table_4k == reference._table_4k
        assert mmu._table_256k == reference._table_256k
        if want is None:
            probe = ("range", logical_base, size, writable)
            assert_ranges_agree([("map_range", *args), probe])

    def test_misaligned_and_unsupported_rejected(self):
        with pytest.raises(AddressError):
            MMU().map_range(0, 100, PAGE_4K)
        with pytest.raises(AddressError):
            MMU().map_range(0, PAGE_4K, PAGE_256K, page_size=PAGE_256K)
        with pytest.raises(AddressError):
            MMU().map_range(0, 0, 8192, page_size=8192)
        with pytest.raises(AddressError):
            MMU().map_range(0, 0, 0)

    def test_a_map_on_one_identity_booted_mmu_is_invisible_to_another(
            self):
        # Both boot on the one read-only identity table; the first map
        # or unmap gives an MMU tables of its own.
        size = PAGE_256K + 3 * PAGE_4K
        one, other, third = (identity_mmu(size) for _ in range(3))
        assert one._table_256k is other._table_256k
        assert one._fine_grained is other._fine_grained
        one.map_page(2 * PAGE_256K, 0, writable=False)
        third.unmap_page(0, size=PAGE_256K)
        assert one._table_4k is not other._table_4k
        assert one.translate(2 * PAGE_256K + 8) == 8
        with pytest.raises(PageFaultError):
            other.translate(2 * PAGE_256K + 8)
        with pytest.raises(PageFaultError):
            third.translate(8)
        assert other.translate(8, write=True) == 8
        assert other._table_4k is identity_mmu(size)._table_4k
        assert len(other._table_4k) == 3 and 0 in other._table_256k
        assert other._fine_grained == {1}

    def test_cells_share_entries_but_not_tables(self):
        size = 2 * PAGE_256K + 3 * PAGE_4K
        one = MemoryController(CellMemory(size), identity_mmu(size))
        other = MemoryController(CellMemory(size), identity_mmu(size))
        one.mmu.map_page(0, 7 * PAGE_4K, writable=False)
        one.mmu.unmap_page(PAGE_256K, size=PAGE_256K)
        one.mmu.unmap_page(2 * PAGE_256K)
        assert one.mmu.translate(8) == 7 * PAGE_4K + 8
        for logical in (8, PAGE_256K + 8, 2 * PAGE_256K + 8, size - 1):
            assert other.mmu.translate(logical, write=True) == logical
        assert other.translate(0, size, write=True) == 0
        with pytest.raises(PageFaultError):
            other.translate(0, size + 1, write=True)


# ----------------------------------------------------------------------
# Oracle: a lookup that probes both TLBs on every access
# ----------------------------------------------------------------------


def probe(tlb, page_number):
    """One TLB's entry for a page, counting the hit or miss (what
    ``MMU._lookup`` does in line)."""
    slot = tlb._slots.get(page_number % tlb.entries)
    if slot is not None and slot[0] == page_number:
        tlb.hits += 1
        return slot[1]
    tlb.misses += 1
    return None


def translate_probing_both_tlbs(mmu, logical, write):
    """``MMU.translate`` with the 4 KB TLB probed before the 256 KB one
    on every access, whether or not a 4 KB mapping can be there."""
    if logical < 0:
        mmu.faults += 1
        raise PageFaultError("negative logical address")
    entry = (probe(mmu.tlb_4k, logical // PAGE_4K)
             or probe(mmu.tlb_256k, logical // PAGE_256K))
    if entry is None:
        mmu.walks += 1
        for tlb, table in ((mmu.tlb_4k, mmu._table_4k),
                           (mmu.tlb_256k, mmu._table_256k)):
            entry = table.get(logical // tlb.page_size)
            if entry is not None:
                tlb.fill(logical // tlb.page_size, entry)
                break
        else:
            mmu.faults += 1
            raise PageFaultError("no mapping")
    if write and not entry.writable:
        raise ProtectionError("read-only page")
    return entry.physical_base + logical % entry.size


class TestLookupOracle:
    @given(steps=st.lists(st.one_of(
        table_ops,
        st.tuples(st.just("translate"),
                  st.integers(-PAGE_4K, SPACE + PAGE_4K), st.booleans())),
        max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_same_address_walks_and_faults(self, steps):
        mmu, reference = MMU(), MMU()
        for step in steps:
            if step[0] == "translate":
                _, logical, write = step
                got = outcome(lambda: mmu.translate(logical, write=write))
                want = outcome(lambda: translate_probing_both_tlbs(
                    reference, logical, write))
                assert got == want, step
                assert (mmu.walks, mmu.faults) == \
                    (reference.walks, reference.faults), step
            else:
                apply_table_op(mmu, step)
                apply_table_op(reference, step)


#: Pages of the run oracle: two mapped large pages, one sharing the
#: first's TLB slot (read-only), and one never mapped.
RUN_PAGES = (0, 1, TLB_ENTRIES_256K, TLB_ENTRIES_256K + 1)


class TestRunOracle:
    """A run planned and charged at once (the batch front end's) against
    its lookups one by one: where the plan accepts the run, the same
    physical addresses and the same TLB slots, hits, misses and walks;
    where a lookup would fault or be refused, no plan and no change."""

    @given(remaps=st.lists(st.sampled_from(RUN_PAGES[:3]), max_size=2),
           fine=st.booleans(),
           run=st.lists(st.tuples(st.sampled_from(RUN_PAGES),
                                  st.sampled_from([0, 8, PAGE_256K - 8,
                                                   PAGE_256K - 4]),
                                  st.booleans()),
                        min_size=1, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_plan_and_charge_equal_the_lookups(self, remaps, fine, run):
        mmu = MMU()
        mmu.map_range(0, 0, 2 * PAGE_256K, page_size=PAGE_256K)
        mmu.map_page(TLB_ENTRIES_256K * PAGE_256K, 2 * PAGE_256K,
                     size=PAGE_256K, writable=False)
        mmu.translate(0)
        for page in remaps:
            # No flush: a TLB entry may now disagree with the table.
            mmu.map_page(page * PAGE_256K, (page + 3) * PAGE_256K,
                         size=PAGE_256K)
        if fine:
            mmu.map_page(PAGE_256K, PAGE_256K)
        logical = np.array([page * PAGE_256K + offset
                            for page, offset, _ in run])
        write = np.array([written for *_, written in run])
        oracle = MMU(**{name: getattr(mmu, name) for name in (
            "_table_4k", "_table_256k", "_fine_grained")})
        oracle.load_state(mmu.state())
        before = mmu.state()
        planned = mmu.plan_run(logical, write, 8)
        assert mmu.state() == before
        want = [outcome(lambda: oracle.translate_range(int(a), 8, write=w))
                for a, w in zip(logical, write.tolist())]
        if planned is None:
            return
        assert planned.tolist() == want
        mmu.charge_run(logical)
        assert mmu.state() == oracle.state()

    @given(remaps=st.lists(st.sampled_from(RUN_PAGES[:3]), max_size=2),
           fine=st.booleans(), page=st.sampled_from(RUN_PAGES),
           run=st.lists(st.tuples(st.sampled_from([0, 8, 4096,
                                                   PAGE_256K - 8]),
                                  st.booleans()),
                        min_size=1, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_a_page_plan_equals_the_lookups(self, remaps, fine, page, run):
        """A run inside one page, planned by its page and charged by its
        length (what a batch does where a cell's extent is one page)."""
        mmu = MMU()
        mmu.map_range(0, 0, 2 * PAGE_256K, page_size=PAGE_256K)
        mmu.map_page(TLB_ENTRIES_256K * PAGE_256K, 2 * PAGE_256K,
                     size=PAGE_256K, writable=False)
        mmu.translate(0)
        for remapped in remaps:
            mmu.map_page(remapped * PAGE_256K, (remapped + 3) * PAGE_256K,
                         size=PAGE_256K)
        if fine:
            mmu.map_page(PAGE_256K, PAGE_256K)
        logical = [page * PAGE_256K + offset for offset, _ in run]
        write = [written for _, written in run]
        oracle = MMU(**{name: getattr(mmu, name) for name in (
            "_table_4k", "_table_256k", "_fine_grained")})
        oracle.load_state(mmu.state())
        before = mmu.state()
        base = mmu.plan_page(page, any(write))
        assert mmu.state() == before
        want = [outcome(lambda: oracle.translate_range(a, 8, write=w))
                for a, w in zip(logical, write)]
        if base is None:
            return
        assert [base + a - page * PAGE_256K for a in logical] == want
        mmu.charge_page(logical[0], len(logical))
        assert mmu.state() == oracle.state()

    def test_a_stretch_on_one_page_looks_up_once(self):
        mmu = identity_mmu(PAGE_256K)
        logical = np.arange(0, 800, 8)
        assert mmu.plan_run(logical, logical % 16 == 0, 8).tolist() \
            == logical.tolist()
        mmu.charge_run(logical)
        assert (mmu.walks, mmu.tlb_256k.misses, mmu.tlb_256k.hits) \
            == (1, 1, 99)
