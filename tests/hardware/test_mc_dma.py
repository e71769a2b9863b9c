"""Unit tests for the MC (flag incrementer, translated access) and DMA."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import (
    AddressError,
    CommunicationError,
    PageFaultError,
)
from repro.hardware.dma import MAX_DMA_BYTES, MIN_DMA_BYTES, DMAEngine
from repro.hardware.mc import (
    NO_FLAG,
    MemoryController,
    allocate_flag_area,
    identity_mmu,
)
from repro.hardware.memory import CellMemory
from repro.network.packet import StrideSpec


@pytest.fixture
def mc():
    return MemoryController(CellMemory(1 << 20), identity_mmu(1 << 20))


class TestFlagIncrementer:
    def test_fetch_and_increment(self, mc):
        assert mc.increment_flag(64) == 1
        assert mc.increment_flag(64) == 2
        assert mc.read_flag(64) == 2

    def test_address_zero_means_no_flag(self, mc):
        assert mc.increment_flag(NO_FLAG) is None
        assert mc.flag_increments == 0

    def test_reading_flag_zero_rejected(self, mc):
        with pytest.raises(AddressError):
            mc.read_flag(0)

    def test_flag_reset(self, mc):
        mc.increment_flag(64)
        mc.write_flag(64, 0)
        assert mc.read_flag(64) == 0

    def test_flags_are_logical_addresses(self):
        """The flag address is translated by the MC's own MMU."""
        mc = MemoryController(CellMemory(1 << 20))
        mc.mmu.map_range(0x8000, 0x1000, 4096)
        mc.increment_flag(0x8000 + 4)
        assert mc.memory.read_word(0x1000 + 4) == 1

    def test_allocate_flag_area(self, mc):
        addrs = allocate_flag_area(mc, 128, 4)
        assert addrs == [128, 132, 136, 140]
        assert all(mc.read_flag(a) == 0 for a in addrs)

    def test_flag_area_at_zero_rejected(self, mc):
        with pytest.raises(AddressError):
            allocate_flag_area(mc, 0, 1)


class TestFlagIncrementOracle:
    """The incrementer against a plain read-then-write of the word."""

    @given(start=st.one_of(st.integers(0, (1 << 32) - 1),
                           st.integers((1 << 32) - 4, (1 << 32) - 1)),
           bumps=st.integers(1, 6))
    def test_equals_read_then_write_across_the_wrap(self, start, bumps):
        mc = MemoryController(CellMemory(4096), identity_mmu(4096))
        mc.write_flag(64, start)
        expected = start
        for n in range(1, bumps + 1):
            returned = mc.increment_flag(64)
            # The count handed back is the fetched word plus one; the
            # word stored wraps at 2**32 like the 4-byte counter it is.
            assert returned == expected + 1
            expected = (expected + 1) % (1 << 32)
            assert mc.read_flag(64) == expected
            assert mc.memory.read(64, 4) == expected.to_bytes(4, "little")
            assert mc.flag_increments == n
        assert mc.memory.read(60, 4) == mc.memory.read(68, 4) == bytes(4)

    def test_flag_past_the_dram_edge_faults(self):
        mc = MemoryController(CellMemory(8192), identity_mmu(8192))
        with pytest.raises(PageFaultError):
            mc.increment_flag(8192)
        assert mc.flag_increments == 0


class TestTranslatedAccess:
    def test_read_write(self, mc):
        mc.write(256, b"data")
        assert mc.read(256, 4) == b"data"
        assert mc.dram_reads == 1 and mc.dram_writes == 1


class TestDMA:
    def test_gather_counts(self):
        mem = CellMemory(1024)
        mem.write(0, bytes(range(64)))
        dma = DMAEngine("send")
        out = dma.gather(mem, 0, StrideSpec(item_size=8, count=4, skip=16))
        assert len(out) == 32
        assert dma.operations == 1
        assert dma.bytes_moved == 32
        assert dma.largest_transfer == 32

    def test_scatter(self):
        mem = CellMemory(1024)
        dma = DMAEngine("recv")
        dma.scatter(mem, 0, StrideSpec.contiguous(8), b"abcdefgh")
        assert mem.read(0, 8) == b"abcdefgh"

    def test_hardware_range_enforced(self):
        mem = CellMemory(16)
        dma = DMAEngine("send")
        with pytest.raises(CommunicationError):
            dma.scatter(mem, 0, StrideSpec.contiguous(2), b"ab")

    def test_hardware_range_constants(self):
        assert MIN_DMA_BYTES == 4
        assert MAX_DMA_BYTES == 4 * 1024 * 1024

    def test_zero_byte_transfer_is_free(self):
        mem = CellMemory(16)
        dma = DMAEngine("send")
        dma.scatter(mem, 0, StrideSpec.contiguous(0), b"")
        assert dma.operations == 0
