"""Tests for the per-PE timeline span log."""

from types import SimpleNamespace

import pytest

from repro.mlsim.params import MLSimParams, ap1000_params
from repro.mlsim.timeline import render_timeline
from repro.trace.events import EventKind, TraceEvent

from .replay import replay, trace_of


def engine(events, num_pes=2, params=None):
    """One recording replay: its timeline and its per-PE results."""
    result = replay(trace_of(num_pes, events), params, record_timeline=True)
    return SimpleNamespace(timeline=result.timeline, pes=result.per_pe)


#: One microsecond per unit of work, communication-register access ten,
#: everything else free: spans land on round numbers.
ROUND = MLSimParams(
    name="round", computation_factor=1.0, hardware_put_get=True,
    network_prolog_time=0.0, network_delay_time=0.0,
    network_epilog_time=0.0, put_msg_time=0.0, barrier_net_time=0.0,
    recv_copy_byte_time=0.0, creg_access_time=10.0)


def compute(pe, work):
    return TraceEvent(EventKind.COMPUTE, pe=pe, work=work)


def barrier(pe):
    return TraceEvent(EventKind.BARRIER, pe=pe, group=0, group_size=2)


def rounded(*events):
    return engine(list(events), params=ROUND).timeline


class TestSpanRecording:
    def test_disabled_by_default(self):
        assert replay(trace_of(1, [])).timeline is None

    def test_compute_span(self):
        eng = engine([TraceEvent(EventKind.COMPUTE, pe=0, work=80.0)])
        spans = eng.timeline.spans_for(0)
        assert len(spans) == 1
        assert spans[0].bucket == "execution"
        assert spans[0].label == "COMPUTE"
        assert spans[0].duration == pytest.approx(10.0)

    def test_spans_tile_the_clock(self):
        """Spans are contiguous and sum to the accounted clock."""
        eng = engine([
            TraceEvent(EventKind.COMPUTE, pe=0, work=800.0),
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=1000,
                       recv_flag=5),
            TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=5, target=1),
            TraceEvent(EventKind.COMPUTE, pe=1, work=80.0),
        ])
        for pe in (0, 1):
            spans = eng.timeline.spans_for(pe)
            for a, b in zip(spans, spans[1:]):
                assert b.start == pytest.approx(a.end)
            total = sum(s.duration for s in spans)
            assert total == pytest.approx(eng.pes[pe].clock)

    def test_idle_spans_labelled_with_cause(self):
        eng = engine([
            TraceEvent(EventKind.COMPUTE, pe=0, work=8000.0),
            TraceEvent(EventKind.BARRIER, pe=0, group=0, group_size=2),
            TraceEvent(EventKind.BARRIER, pe=1, group=0, group_size=2),
        ])
        assert eng.timeline.dominant_label(1, "idle") == "BARRIER"

    def test_communication_labels_carry_partner(self):
        eng = engine([TraceEvent(EventKind.PUT, pe=0, partner=1, size=64)])
        spans = eng.timeline.spans_for(0)
        assert spans[0].label == "PUT->1"

    def test_stolen_interrupt_spans_on_software_model(self):
        eng = engine([
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=1000),
            TraceEvent(EventKind.COMPUTE, pe=1, work=10.0),
        ], params=ap1000_params())
        labels = {s.label for s in eng.timeline.spans_for(1)}
        assert "stolen-interrupt" in labels


class TestAnalysis:
    def test_busy_fraction(self):
        tl = rounded(compute(0, 60.0), barrier(0),
                     compute(1, 100.0), barrier(1))
        assert [(s.start, s.end, s.bucket) for s in tl.spans_for(0)] == [
            (0.0, 60.0, "execution"), (60.0, 100.0, "idle")]
        assert tl.busy_fraction(0) == pytest.approx(0.6)

    def test_busy_fraction_empty(self):
        assert rounded().busy_fraction(0) == 0.0

    def test_window(self):
        tl = rounded(
            compute(0, 10.0), barrier(0),
            TraceEvent(EventKind.CREG_STORE, pe=0, partner=1, size=4),
            compute(1, 20.0), barrier(1))
        assert [(s.start, s.end, s.bucket) for s in tl.spans_for(0)] == [
            (0.0, 10.0, "execution"), (10.0, 20.0, "idle"),
            (20.0, 30.0, "overhead")]
        hits = tl.window(0, 5, 15)
        assert [s.label for s in hits] == ["COMPUTE", "BARRIER"]

    def test_zero_duration_spans_dropped(self):
        tl = rounded(compute(0, 0.0))
        assert tl.spans_for(0) == []


class TestRendering:
    def test_render_shape(self):
        eng = engine([
            TraceEvent(EventKind.COMPUTE, pe=0, work=160.0),
            TraceEvent(EventKind.COMPUTE, pe=1, work=80.0),
        ])
        text = render_timeline(eng.timeline, width=40)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("PE   0 |")
        assert "#" in lines[1]

    def test_render_empty(self):
        assert "(empty timeline)" in render_timeline(rounded())

    def test_render_subset(self):
        eng = engine([
            TraceEvent(EventKind.COMPUTE, pe=0, work=160.0),
            TraceEvent(EventKind.COMPUTE, pe=1, work=80.0),
        ])
        text = render_timeline(eng.timeline, pes=[1])
        assert "PE   1" in text and "PE   0" not in text
