"""Unit tests for cell DRAM and the shared-space address map."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.errors import AddressError, ConfigurationError
from repro.hardware.memory import (
    PHYSICAL_SPACE_BYTES,
    SHARED_SPACE_BASE,
    AddressMap,
    CellMemory,
)
from repro.hardware.memory import WORD_BYTES
from repro.network.packet import StrideSpec


class TestCellMemory:
    def test_starts_zeroed(self):
        mem = CellMemory(1024)
        assert mem.read(0, 1024) == bytes(1024)

    def test_write_read_roundtrip(self):
        mem = CellMemory(256)
        mem.write(10, b"hello")
        assert mem.read(10, 5) == b"hello"

    def test_word_access_little_endian(self):
        mem = CellMemory(64)
        mem.write_word(8, 0x01020304)
        assert mem.read(8, 4) == bytes([4, 3, 2, 1])
        assert mem.read_word(8) == 0x01020304

    def test_word_wraps_at_32_bits(self):
        mem = CellMemory(64)
        mem.write_word(0, (1 << 32) + 7)
        assert mem.read_word(0) == 7

    def test_out_of_range_rejected(self):
        mem = CellMemory(16)
        with pytest.raises(AddressError):
            mem.read(10, 10)
        with pytest.raises(AddressError):
            mem.write(-1, b"x")

    def test_view_is_live(self):
        mem = CellMemory(64)
        view = mem.view(0, 8)
        mem.write(0, b"abcdefgh")
        assert view.tobytes() == b"abcdefgh"

    def test_numpy_array_carving(self):
        mem = CellMemory(1024)
        arr = mem.view(64, 64).view(np.float64)
        arr[:] = np.arange(8)
        assert np.frombuffer(mem.read(64, 64), dtype=np.float64).tolist() == \
            list(range(8))

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CellMemory(0)


class TestGatherScatter:
    def test_gather_contiguous(self):
        mem = CellMemory(64)
        mem.write(0, bytes(range(16)))
        assert mem.gather(0, StrideSpec.contiguous(16)) == bytes(range(16))

    def test_gather_strided(self):
        mem = CellMemory(64)
        mem.write(0, bytes(range(32)))
        out = mem.gather(0, StrideSpec(item_size=2, count=3, skip=8))
        assert out == bytes([0, 1, 8, 9, 16, 17])

    def test_scatter_strided(self):
        mem = CellMemory(64)
        mem.scatter(4, StrideSpec(item_size=1, count=4, skip=4),
                    bytes([9, 8, 7, 6]))
        assert mem.read_word(4) % 256 == 9
        assert mem.read(4, 13)[::4] == bytes([9, 8, 7, 6])

    def test_scatter_size_mismatch_rejected(self):
        mem = CellMemory(64)
        with pytest.raises(AddressError):
            mem.scatter(0, StrideSpec(item_size=4, count=2, skip=8), b"xy")

    def test_gather_scatter_roundtrip(self):
        mem_a, mem_b = CellMemory(128), CellMemory(128)
        mem_a.write(0, bytes(range(64)))
        spec = StrideSpec(item_size=4, count=8, skip=8)
        payload = mem_a.gather(0, spec)
        mem_b.scatter(0, spec, payload)
        assert mem_b.gather(0, spec) == payload


# ----------------------------------------------------------------------
# Oracle: the nested checks that the once-per-access check replaced
# ----------------------------------------------------------------------


class NestedCheckMemory(CellMemory):
    """Every form checks its own range, then calls a form that checks
    again — how ``CellMemory`` was written before."""

    def read(self, addr, size):
        self._check_range(addr, size)
        return self._buf[addr:addr + size].tobytes()

    def write(self, addr, data):
        raw = (np.frombuffer(data, dtype=np.uint8)
               if isinstance(data, (bytes, bytearray)) else data)
        self._check_range(addr, len(raw))
        self._buf[addr:addr + len(raw)] = raw

    def read_word(self, addr):
        self._check_range(addr, WORD_BYTES)
        return int.from_bytes(self.read(addr, WORD_BYTES), "little")

    def write_word(self, addr, value):
        self._check_range(addr, WORD_BYTES)
        self.write(addr, (value % (1 << 32)).to_bytes(WORD_BYTES, "little"))

    def increment_word(self, addr):
        value = self.read_word(addr) + 1
        self.write_word(addr, value)
        return value

    def gather(self, addr, stride):
        self._check_range(addr, stride.extent_bytes)
        if stride.count <= 1 or stride.skip == stride.item_size:
            return self.read(addr, stride.total_bytes)
        return b"".join(
            self._buf[addr + off:addr + off + stride.item_size].tobytes()
            for off in stride.offsets())

    def scatter(self, addr, stride, data):
        if len(data) != stride.total_bytes:
            raise AddressError(
                f"scatter payload is {len(data)} bytes but stride describes "
                f"{stride.total_bytes}")
        self._check_range(addr, stride.extent_bytes)
        if stride.count <= 1 or stride.skip == stride.item_size:
            self.write(addr, data)
            return
        raw = np.frombuffer(data, dtype=np.uint8)
        for i, off in enumerate(stride.offsets()):
            chunk = raw[i * stride.item_size:(i + 1) * stride.item_size]
            self._buf[addr + off:addr + off + stride.item_size] = chunk


DRAM = 96
addresses = st.integers(-8, DRAM + 8)
strides = st.builds(
    lambda item, count, gap: StrideSpec(item, count, item + gap),
    st.integers(0, 12), st.integers(0, 6), st.integers(0, 12))
accesses = st.one_of(
    st.tuples(st.just("read"), addresses, st.integers(-2, DRAM + 8)),
    st.tuples(st.just("write"), addresses, st.binary(max_size=24)),
    st.tuples(st.just("write"), addresses,
              st.binary(max_size=24).map(
                  lambda raw: np.frombuffer(raw, dtype=np.uint8))),
    st.tuples(st.just("read_word"), addresses),
    st.tuples(st.just("write_word"), addresses,
              st.integers(-3, (1 << 33))),
    st.tuples(st.just("increment_word"), addresses),
    st.tuples(st.just("gather"), addresses, strides),
    st.tuples(st.just("scatter"), addresses, strides,
              st.binary(max_size=72)),
)


def attempt(memory, access):
    name, *args = access
    if name == "scatter" and len(args[2]) >= args[1].total_bytes:
        args[2] = args[2][:args[1].total_bytes]     # mostly well-sized
    try:
        return getattr(memory, name)(*args)
    except AddressError as exc:
        return str(exc)


class TestOneCheckPerAccess:
    @given(program=st.lists(accesses, max_size=30))
    def test_same_results_errors_and_bytes_as_nested_checks(self, program):
        memory, reference = CellMemory(DRAM), NestedCheckMemory(DRAM)
        for access in program:
            assert attempt(memory, access) == attempt(reference, access), \
                access
            assert memory.read(0, DRAM) == reference.read(0, DRAM), access

    @pytest.mark.parametrize("addr", [DRAM - 3, DRAM, -1])
    def test_word_forms_raise_at_the_dram_edge(self, addr):
        memory = CellMemory(DRAM)
        with pytest.raises(AddressError, match="outside 96-byte DRAM"):
            memory.read_word(addr)
        with pytest.raises(AddressError, match="outside 96-byte DRAM"):
            memory.write_word(addr, 1)
        assert memory.read(0, DRAM) == bytes(DRAM)     # nothing written


class TestWordOpsAreStructOps:
    """One ``struct`` operation on the held view does what slicing,
    ``int.from_bytes`` and ``to_bytes`` did: same word at any alignment,
    same wrap, same refusal with DRAM untouched."""

    WRAP = (1 << 32) - 1

    @given(fill=st.binary(min_size=DRAM, max_size=DRAM), addr=addresses,
           value=st.one_of(st.integers(0, 1 << 33), st.just(WRAP)))
    @example(fill=bytes(range(DRAM)), addr=DRAM - WORD_BYTES, value=WRAP)
    @example(fill=b"\xff" * DRAM, addr=DRAM - WORD_BYTES, value=0)
    @example(fill=b"\xff" * DRAM, addr=1, value=WRAP)       # unaligned
    @example(fill=bytes(DRAM), addr=DRAM - WORD_BYTES + 1, value=1)
    def test_against_from_bytes(self, fill, addr, value):
        memory = CellMemory(DRAM)
        memory.write(0, fill)
        if not 0 <= addr <= DRAM - WORD_BYTES:
            for refused in (lambda: memory.read_word(addr),
                            lambda: memory.write_word(addr, value),
                            lambda: memory.increment_word(addr)):
                with pytest.raises(AddressError, match="outside 96-byte"):
                    refused()
                assert memory.read(0, DRAM) == fill
            return
        word = slice(addr, addr + WORD_BYTES)
        stored = int.from_bytes(fill[word], "little")
        assert memory.read_word(addr) == stored
        # The value returned is the count; the word stored is 32 bits.
        assert memory.increment_word(addr) == stored + 1
        want = bytearray(fill)
        want[word] = ((stored + 1) % (1 << 32)).to_bytes(4, "little")
        assert memory.read(0, DRAM) == bytes(want)
        memory.write_word(addr, value)
        want[word] = (value % (1 << 32)).to_bytes(4, "little")
        assert memory.read(0, DRAM) == bytes(want)
        assert memory.read_word(addr) == value % (1 << 32)


class TestRebind:
    def test_every_access_lands_in_the_new_buffer_and_none_in_the_old(self):
        old = np.zeros(DRAM, dtype=np.uint8)
        new = np.zeros(DRAM, dtype=np.uint8)
        memory = CellMemory(DRAM, old)
        memory.rebind(new)
        assert memory.buffer is new
        memory.write(0, b"bytes")
        memory.write(8, np.arange(4, dtype=np.uint8))
        memory.write_word(16, 0x01020304)
        assert memory.increment_word(16) == 0x01020305
        memory.scatter(24, StrideSpec(2, 3, 5), b"aabbcc")
        memory.view(48, 4)[:] = 7
        assert not old.any()
        assert new.tobytes() == memory.read(0, DRAM)
        assert memory.read(0, 5) == b"bytes"
        assert memory.read(8, 4) == bytes(range(4))
        assert memory.read_word(16) == 0x01020305
        assert memory.gather(24, StrideSpec(2, 3, 5)) == b"aabbcc"
        assert memory.read(48, 4) == bytes([7] * 4)
        # What was in the new buffer before is DRAM contents now.
        other = np.frombuffer(bytearray(b"\x2a" * DRAM), dtype=np.uint8)
        memory.rebind(other)
        assert memory.read_word(0) == 0x2a2a2a2a
        assert new.tobytes()[:5] == b"bytes"


class TestStridedDMAIsOneOperation:
    """``gather`` / ``scatter`` through one strided view of DRAM equal
    the loop over items they replaced (``NestedCheckMemory`` keeps it)."""

    @staticmethod
    def pair(fill):
        memory, reference = CellMemory(DRAM), NestedCheckMemory(DRAM)
        memory.write(0, fill)
        reference.write(0, fill)
        return memory, reference

    #: (item_size, count, gap, distance of the extent's end from the end
    #: of DRAM; negative runs over it).
    layouts = st.tuples(st.integers(0, 9), st.integers(0, 8),
                        st.integers(0, 9), st.integers(-2, 40))

    @given(layout=layouts, fill=st.binary(min_size=DRAM, max_size=DRAM),
           payload=st.binary(min_size=72, max_size=72))
    @example(layout=(4, 0, 3, 0), fill=bytes(range(DRAM)),
             payload=bytes(72))                           # count == 0
    @example(layout=(4, 5, 0, 7), fill=bytes(range(DRAM)),
             payload=bytes(range(72)))                    # skip == item_size
    @example(layout=(3, 6, 2, 0), fill=bytes(range(DRAM)),
             payload=bytes(range(72)))                    # last byte of DRAM
    @example(layout=(1, 8, 9, -1), fill=bytes(range(DRAM)),
             payload=bytes(range(72)))                    # one byte past it
    def test_equals_the_loop_over_items(self, layout, fill, payload):
        item, count, gap, slack = layout
        stride = StrideSpec(item, count, item + gap)
        addr = DRAM - slack - stride.extent_bytes
        memory, reference = self.pair(fill)
        gather = ("gather", addr, stride)
        assert attempt(memory, gather) == attempt(reference, gather)
        scatter = ("scatter", addr, stride, payload[:stride.total_bytes])
        assert attempt(memory, scatter) == attempt(reference, scatter)
        assert memory.read(0, DRAM) == reference.read(0, DRAM)
        if slack >= 0 and addr >= 0:
            assert memory.gather(addr, stride) == payload[:stride.total_bytes]


class TestAddressMap:
    def test_split_is_half_and_half(self):
        assert SHARED_SPACE_BASE * 2 == PHYSICAL_SPACE_BYTES

    def test_local_vs_shared(self):
        amap = AddressMap(num_cells=4, memory_per_cell=1 << 20)
        assert not amap.is_shared(0)
        assert amap.is_shared(SHARED_SPACE_BASE)

    def test_block_per_cell(self):
        amap = AddressMap(num_cells=1024, memory_per_cell=64 << 20)
        # The paper's example: 1024 cells, 64 MB -> 32 MB blocks, half of
        # local memory exported.
        assert amap.block_size == 32 << 20
        assert amap.shared_window_bytes == 32 << 20

    def test_resolve_shared(self):
        amap = AddressMap(num_cells=8, memory_per_cell=1 << 20)
        base = amap.shared_base(3)
        cell, offset = amap.resolve_shared(base + 100)
        assert (cell, offset) == (3, 100)

    def test_resolve_beyond_window_rejected(self):
        amap = AddressMap(num_cells=2, memory_per_cell=1 << 16)
        with pytest.raises(AddressError):
            amap.resolve_shared(amap.shared_base(0) + (1 << 16))

    def test_local_address_not_resolvable(self):
        amap = AddressMap(num_cells=2, memory_per_cell=1 << 16)
        with pytest.raises(AddressError):
            amap.resolve_shared(1234)

    def test_out_of_space_rejected(self):
        amap = AddressMap(num_cells=2, memory_per_cell=1 << 16)
        with pytest.raises(AddressError):
            amap.is_shared(PHYSICAL_SPACE_BYTES)
