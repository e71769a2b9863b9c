"""Determinism suite: identical configurations produce identical traces,
identical timing results, and serialization-stable replays — across the
whole application suite."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import workloads
from repro.mlsim.params import ap1000_plus_params
from repro.mlsim.simulator import simulate
from repro.trace.compare import (
    COMPARE_FIELDS,
    LengthMismatch,
    TraceDivergence,
    assert_traces_equal,
    compare_traces,
    trace_fingerprint,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import load_trace, save_trace
from tests.trace.views import events_for, record

FAST_CONFIGS = {
    "EP": dict(num_cells=4, log2_pairs=8),
    "CG": dict(num_cells=4, n=84, outer=1, inner=3),
    "FT": dict(num_cells=4, shape=(8, 8, 8), iters=1),
    "SP": dict(num_cells=4, shape=(16, 8, 8), iters=1, chunks=2),
    "TC st": dict(num_cells=4, n=17, iters=2, use_stride=True),
    "MatMul": dict(num_cells=4, n=16),
    "SCG": dict(num_cells=4, m=16),
}


def run_twice(name):
    cfg = dict(FAST_CONFIGS[name])
    cells = cfg.pop("num_cells")
    runner = workloads.workload(name).runner
    return runner(num_cells=cells, **cfg), runner(num_cells=cells, **cfg)


class TestTraceDeterminism:
    @pytest.mark.parametrize("name", sorted(FAST_CONFIGS))
    def test_identical_traces(self, name):
        a, b = run_twice(name)
        assert_traces_equal(a.trace, b.trace)

    @pytest.mark.parametrize("name", sorted(FAST_CONFIGS))
    def test_identical_timing(self, name):
        a, b = run_twice(name)
        ra = simulate(a.trace, ap1000_plus_params())
        rb = simulate(b.trace, ap1000_plus_params())
        assert ra.elapsed_us == rb.elapsed_us
        assert ra.mean_idle == rb.mean_idle

    def test_fingerprints_stable_within_run(self):
        a, b = run_twice("MatMul")
        assert trace_fingerprint(a.trace) == trace_fingerprint(b.trace)

    def test_serialization_preserves_comparison(self):
        a, _ = run_twice("TC st")
        stream = io.BytesIO()
        save_trace(a.trace, stream)
        stream.seek(0)
        loaded = load_trace(stream)
        again = io.BytesIO()
        save_trace(loaded, again)
        assert again.getvalue() == stream.getvalue()
        # msg_id round-trips through serialization, so compare everything.
        from repro.trace.compare import COMPARE_FIELDS
        assert compare_traces(a.trace, loaded,
                              fields=COMPARE_FIELDS + ("msg_id",)) is None


class TestCompareTooling:
    def _trace(self, *events):
        buf = TraceBuffer(num_pes=2)
        for ev in events:
            record(buf, ev)
        return buf

    def test_equal_traces_return_none(self):
        a = self._trace(TraceEvent(EventKind.PUT, pe=0, partner=1, size=8))
        b = self._trace(TraceEvent(EventKind.PUT, pe=0, partner=1, size=8))
        assert compare_traces(a, b) is None

    def test_field_divergence_located(self):
        a = self._trace(TraceEvent(EventKind.PUT, pe=0, partner=1, size=8))
        b = self._trace(TraceEvent(EventKind.PUT, pe=0, partner=1, size=16))
        div = compare_traces(a, b)
        assert div is not None
        assert div.field == "size"
        assert (div.left, div.right) == (8, 16)
        assert "PE 0" in div.describe()

    def test_length_mismatch_located(self):
        a = self._trace(TraceEvent(EventKind.BARRIER, pe=1))
        b = self._trace()
        div = compare_traces(a, b)
        assert div is not None
        assert div.pe == 1
        assert "events" in div.describe()

    def test_pe_count_mismatch(self):
        a = TraceBuffer(num_pes=2)
        b = TraceBuffer(num_pes=3)
        assert compare_traces(a, b) is not None

    def test_assert_raises_with_description(self):
        a = self._trace(TraceEvent(EventKind.GOP, pe=0, size=8))
        b = self._trace(TraceEvent(EventKind.GOP, pe=0, size=9))
        with pytest.raises(AssertionError, match="size"):
            assert_traces_equal(a, b)

    def test_fingerprint_sensitive_to_order(self):
        a = self._trace(TraceEvent(EventKind.PUT, pe=0, partner=1, size=8),
                        TraceEvent(EventKind.GET, pe=0, partner=1, size=8))
        b = self._trace(TraceEvent(EventKind.GET, pe=0, partner=1, size=8),
                        TraceEvent(EventKind.PUT, pe=0, partner=1, size=8))
        assert trace_fingerprint(a) != trace_fingerprint(b)


def reference_compare(left, right, fields=COMPARE_FIELDS):
    """The per-event walk ``compare_traces`` replaced: PE by PE, the
    event count, then each event's fields in order."""
    if left.num_pes != right.num_pes:
        return LengthMismatch(pe=-1, left_events=left.num_pes,
                              right_events=right.num_pes)
    for pe in range(left.num_pes):
        levs, revs = events_for(left, pe), events_for(right, pe)
        if len(levs) != len(revs):
            return LengthMismatch(pe=pe, left_events=len(levs),
                                  right_events=len(revs))
        for i, (le, re_) in enumerate(zip(levs, revs)):
            for field in fields:
                lv, rv = getattr(le, field), getattr(re_, field)
                if lv != rv:
                    return TraceDivergence(pe=pe, index=i, field=field,
                                           left=lv, right=rv)
    return None


_BASE = run_twice("TC st")[0].trace
#: Fields an edit may change (a block stays sorted by ``pe``).
_EDITABLE = [name for name in COMPARE_FIELDS if name != "pe"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, _BASE.total_events - 1),
                          st.sampled_from(_EDITABLE)), max_size=3),
       st.lists(st.integers(0, _BASE.total_events - 1), max_size=2))
def test_first_divergence_is_the_per_event_walks(edits, dropped):
    """Columns compared at once find the divergence, with the values and
    description, that walking the events did: edited fields, dropped
    events, or both."""
    block = {name: np.array(column) for name, column in _BASE.block().items()}
    for row, name in edits:
        column = block[name]
        column[row] = not column[row] if column.dtype == bool else (
            (column[row] + 1) % (len(EventKind) if name == "kind" else 100))
    keep = np.ones(_BASE.total_events, bool)
    keep[dropped] = False
    other = TraceBuffer.from_block(
        _BASE.num_pes, _BASE.groups, list(_BASE.phases),
        {name: column[keep] for name, column in block.items()})
    for left, right in ((_BASE, other), (other, _BASE)):
        got, want = compare_traces(left, right), reference_compare(left,
                                                                   right)
        assert got == want
        if want is not None:
            assert got.describe() == want.describe()
