"""Unit tests for the byte-footprint intersection used by the race
detector — span overlap is necessary but not sufficient, so the chunk
arithmetic must be exact.  A footprint is (base, chunk, count, step):
``count`` chunks of ``chunk`` bytes, chunk i at ``base + i * step``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.hb import build_happens_before
from repro.check.races import chunks_meet, race_report
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent
from tests.trace.views import record


def contiguous(base, nbytes):
    return (base, nbytes, 1, max(nbytes, 1))


def overlaps(a, b):
    [hit] = chunks_meet(a, b)
    return bool(hit)


def byte(addr):
    return contiguous(addr, 1)


class TestSpan:
    def test_hi_of_contiguous(self):
        fp = contiguous(100, 64)
        assert overlaps(fp, byte(163)) and not overlaps(fp, byte(164))

    def test_hi_of_strided(self):
        fp = (0, 8, 4, 32)
        assert overlaps(fp, byte(3 * 32 + 7))
        assert not overlaps(fp, byte(3 * 32 + 8))

    def test_empty(self):
        for fp in ((0, 0, 4, 8), (0, 8, 0, 8)):
            assert not overlaps(fp, fp)
            assert not overlaps(fp, contiguous(0, 64))


class TestOverlap:
    def test_contiguous_overlapping(self):
        assert overlaps(contiguous(0, 64), contiguous(32, 64))

    def test_contiguous_adjacent_disjoint(self):
        assert not overlaps(contiguous(0, 64), contiguous(64, 64))

    def test_interleaved_columns_disjoint(self):
        # Column 0 and column 1 of a row-major matrix: same span,
        # element-disjoint — exactly the TOMCATV halo pattern.
        col0 = (0, 8, 8, 64)
        col1 = (8, 8, 8, 64)
        assert not overlaps(col0, col1)
        assert not overlaps(col1, col0)

    def test_interleaved_same_column_overlap(self):
        col = (0, 8, 8, 64)
        assert overlaps(col, col)

    def test_strided_vs_contiguous_hit(self):
        col = (0, 8, 8, 64)
        row = contiguous(64, 64)  # second row covers col chunk at 64
        assert overlaps(col, row)
        assert overlaps(row, col)

    def test_strided_vs_contiguous_miss(self):
        col = (0, 8, 8, 64)
        gap = contiguous(16, 40)  # inside row 0, after col 0's chunk
        assert not overlaps(col, gap)
        assert not overlaps(gap, col)

    def test_wide_chunk_crossing_stride(self):
        a = (0, 8, 4, 24)         # 0,24,48,72
        b = contiguous(20, 8)     # [20,28)
        assert overlaps(a, b)

    def test_offset_strides_disjoint(self):
        a = (0, 4, 10, 16)
        b = (8, 4, 10, 16)
        assert not overlaps(a, b)

    def test_different_strides_eventually_collide(self):
        a = (0, 8, 6, 24)         # 0,24,...,120
        b = (8, 8, 6, 16)         # 8,24 hit at 24
        assert overlaps(a, b)
        assert overlaps(b, a)

    def test_intersection_span(self):
        # A race's byte range is where the two spans intersect.
        buf = TraceBuffer(num_pes=3)
        for pe, base in ((0, 0), (2, 32)):
            record(buf, TraceEvent(EventKind.PUT, pe=pe, partner=1, size=64,
                                   raddr=base, rchunk=64, rcount=1,
                                   rstep=64))
        [diag] = race_report(build_happens_before(buf), "t").diagnostics
        assert (diag.addr_lo, diag.addr_hi) == (32, 64)

    def test_one_answer_per_pair(self):
        col0, col1 = (0, 8, 8, 64), (8, 8, 8, 64)
        a = np.array([col0, col0, contiguous(0, 64), (0, 8, 0, 8)]).T
        b = np.array([col1, col0, contiguous(64, 64), col0]).T
        assert chunks_meet(a, b).tolist() == [False, True, False, False]

    def test_pairs_with_more_chunks_than_one_array_pass(self):
        n = 3 << 20     # each pair's chunks span three passes
        even, odd = (0, 1, n, 2), (1, 1, n, 2)
        last = (2 * n - 2, 1, n, 2)     # meets even's last chunk only
        a = np.array([even, even, (0, 8, 8, 64)]).T
        b = np.array([odd, last, (0, 8, 8, 64)]).T
        assert chunks_meet(a, b).tolist() == [False, True, True]


footprints = st.tuples(
    st.integers(0, 96), st.integers(0, 12), st.integers(0, 6),
    st.integers(0, 24)).map(
        lambda f: (f[0], f[1], f[2], f[1] + f[3]))   # step >= chunk


def byte_set(base, chunk, count, step):
    return {base + i * step + k for i in range(count) for k in range(chunk)}


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(footprints, footprints), min_size=1, max_size=8),
       st.booleans())
def test_meets_exactly_when_bytes_are_shared(pairs, contiguous_first):
    if contiguous_first:        # step == chunk: one span of bytes
        pairs[0] = ((pairs[0][0][0], pairs[0][0][1], pairs[0][0][2],
                     pairs[0][0][1]), pairs[0][1])
    a, b = (np.array([pair[side] for pair in pairs]).T for side in (0, 1))
    want = [bool(byte_set(*x) & byte_set(*y)) for x, y in pairs]
    assert chunks_meet(a, b).tolist() == want
