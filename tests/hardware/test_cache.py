"""Unit tests for the write-through cache and receive-side invalidation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.hardware.cache import CACHE_BYTES, LINE_BYTES, WriteThroughCache


@pytest.fixture
def cache():
    return WriteThroughCache(size_bytes=1024, line_bytes=32)


class TestBasics:
    def test_hardware_geometry(self):
        c = WriteThroughCache()
        assert c.size_bytes == CACHE_BYTES == 36 * 1024
        assert c.line_bytes == LINE_BYTES
        assert c.num_lines == CACHE_BYTES // LINE_BYTES

    def test_misaligned_size_rejected(self):
        with pytest.raises(ConfigurationError):
            WriteThroughCache(size_bytes=100, line_bytes=32)

    def test_read_miss_then_hit(self, cache):
        assert cache.read(0, 4) == 1   # one line loaded
        assert cache.read(0, 4) == 0
        assert cache.hits == 1
        assert cache.misses == 1

    def test_read_spanning_lines(self, cache):
        assert cache.read(30, 4) == 2  # crosses a line boundary

    def test_write_through_no_allocate(self, cache):
        cache.write(0, 4)
        assert cache.write_throughs == 1
        assert not cache.contains(0)   # no allocation on write miss

    def test_write_hit_keeps_line(self, cache):
        cache.read(0, 4)
        cache.write(0, 4)
        assert cache.contains(0)


class TestInvalidation:
    def test_invalidate_resident_range(self, cache):
        cache.read(0, 64)
        dropped = cache.invalidate_range(0, 64)
        assert dropped == 2
        assert not cache.contains(0)

    def test_invalidate_nonresident_is_noop(self, cache):
        assert cache.invalidate_range(0, 64) == 0

    def test_invalidate_partial_overlap(self, cache):
        cache.read(0, 96)   # lines 0,1,2
        cache.invalidate_range(32, 32)  # only line 1
        assert cache.contains(0)
        assert not cache.contains(32)
        assert cache.contains(64)

    def test_huge_range_fast_path_clears_everything(self, cache):
        cache.read(0, 512)
        dropped = cache.invalidate_range(0, 1 << 20)
        assert dropped == 16
        assert cache.invalidated_lines == 16

    def test_zero_size_invalidate(self, cache):
        assert cache.invalidate_range(0, 0) == 0

    def test_direct_mapped_aliasing(self, cache):
        cache.read(0, 4)
        cache.read(1024, 4)   # same index, different tag: evicts
        assert not cache.contains(0)
        assert cache.contains(1024)

    def test_flush(self, cache):
        cache.read(0, 128)
        cache.flush()
        assert not cache.contains(0)


def invalidate_per_line(cache, addr, size):
    """Oracle: the per-line walk ``invalidate_range`` did before it
    learned to walk the resident tags when those are fewer."""
    if size <= 0:
        return 0
    dropped = 0
    if size >= cache.size_bytes:
        dropped = len(cache._tags)
        cache._tags.clear()
    else:
        for line in cache._lines(addr, size):
            index = line % cache.num_lines
            if cache._tags.get(index) == line:
                del cache._tags[index]
                dropped += 1
    cache.invalidated_lines += dropped
    return dropped


class TestInvalidationOracle:
    """``invalidate_range`` against the per-line walk, on tag stores
    from empty to full and ranges from one byte to past the cache."""

    @given(reads=st.lists(st.tuples(st.integers(0, 8191),
                                    st.integers(1, 700)), max_size=12),
           ranges=st.lists(st.tuples(st.integers(0, 8191),
                                     st.integers(0, 1400)),
                           min_size=1, max_size=6))
    def test_equals_the_per_line_walk(self, reads, ranges):
        ours = WriteThroughCache(size_bytes=1024, line_bytes=32)
        oracle = WriteThroughCache(size_bytes=1024, line_bytes=32)
        for addr, size in reads:
            ours.read(addr, size)
            oracle.read(addr, size)
        for addr, size in ranges:
            assert (ours.invalidate_range(addr, size)
                    == invalidate_per_line(oracle, addr, size))
            assert ours._tags == oracle._tags
            assert ours.invalidated_lines == oracle.invalidated_lines

    @given(reads=st.lists(st.tuples(st.integers(0, 8191),
                                    st.integers(1, 700)), max_size=12),
           addrs=st.lists(st.integers(0, 8191), max_size=16),
           size=st.sampled_from([0, 4, 8, 40, 1024, 2000]))
    def test_items_equal_their_ranges_in_turn(self, reads, addrs, size):
        ours = WriteThroughCache(size_bytes=1024, line_bytes=32)
        oracle = WriteThroughCache(size_bytes=1024, line_bytes=32)
        for addr, length in reads:
            ours.read(addr, length)
            oracle.read(addr, length)
        dropped = sum(oracle.invalidate_range(addr, size) for addr in addrs)
        assert ours.invalidate_items(np.array(addrs, np.int64),
                                     size) == dropped
        assert ours._tags == oracle._tags
        assert ours.invalidated_lines == oracle.invalidated_lines

    def test_both_walks_are_taken(self):
        # One resident line against a 4 KB range (the tags are fewer),
        # then a full store against one line (the range is).
        cache = WriteThroughCache()
        cache.read(4096 + 64, 4)
        assert cache.invalidate_range(4096, 4096) == 1
        assert cache.invalidate_range(4096, 4096) == 0
        cache.read(0, CACHE_BYTES)
        assert cache.invalidate_range(LINE_BYTES, 1) == 1
        assert len(cache._tags) == cache.num_lines - 1
        assert cache.invalidated_lines == 2
