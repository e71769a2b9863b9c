"""Determinism suite: identical configurations produce identical traces,
identical timing results, and serialization-stable replays — across the
whole application suite."""

import io

import pytest

from repro.apps import workloads
from repro.mlsim.params import ap1000_plus_params
from repro.mlsim.simulator import simulate
from repro.trace.compare import (
    assert_traces_equal,
    compare_traces,
    trace_fingerprint,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import load_trace, save_trace

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
            buf.record(ev)
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
