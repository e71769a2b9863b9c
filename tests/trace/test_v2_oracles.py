"""The bulk v2 loader and the shared event extraction against their
per-event references (``reference.py``), on generated buffers.

Both replaced loops are pure restructurings: the files, the loaded
buffers and the replay columns must be what the slow code produced,
and a document that does not describe one buffer must be refused with
the file's name.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.trace.buffer import TraceBuffer, streaming_to
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import (
    load_columns_npz,
    load_trace,
    load_trace_columns,
    save_columns_npz,
    save_trace_v2,
)
from repro.trace.soa import coalesce_columns, columns_from_buffer

from .reference import (
    golden_buffer,
    reference_buffer_from_v2,
    reference_columns_from_buffer,
)

GOLDEN = Path(__file__).parent / "golden" / "small.v2.jsonl"

ARRAYS = ("starts", "kind", "partner", "size", "send_flag", "recv_flag",
          "msg_id", "flag", "target", "group", "group_size", "work")


@st.composite
def buffers(draw) -> TraceBuffer:
    """Any buffer the recorder could hand the writer: every event kind,
    PEs without events (or no events at all), sub-groups, phases,
    sanitizer ranges on some events or none, and ``seq`` values that
    are not the record order."""
    n = draw(st.integers(1, 6))
    buf = TraceBuffer(num_pes=n)
    assert buf.groups is not None
    pes = st.integers(0, n - 1)
    for members in draw(st.lists(st.sets(pes, min_size=1), max_size=3)):
        buf.groups.intern(tuple(members))
    for label in draw(st.lists(st.sampled_from("abcde"), max_size=3)):
        buf.phase_id(label)
    annotate = draw(st.booleans())
    small = st.integers(0, 1 << 20)
    ranges = st.fixed_dictionaries({
        "raddr": st.integers(-1, 1 << 24), "rchunk": small,
        "rcount": small, "rstep": small,
        "laddr": st.integers(-1, 1 << 24), "lchunk": small,
        "lcount": small, "lstep": small,
    }) if annotate else st.just({})
    event = st.builds(
        TraceEvent,
        kind=st.sampled_from(EventKind),
        pe=st.integers(0, max(0, n - 2)),      # the last PE stays empty
        partner=st.integers(-1, n - 1),
        size=small, stride=st.booleans(), send_flag=small,
        recv_flag=small, is_ack=st.booleans(), msg_id=small, flag=small,
        target=st.integers(0, 64),
        group=st.integers(0, len(buf.groups) - 1),
        group_size=st.integers(0, n),
        work=st.floats(0.0, 1e9, allow_nan=False),
    )
    events = draw(st.lists(st.tuples(event, ranges), max_size=40))
    for ev, extra in events:
        for name, value in extra.items():
            setattr(ev, name, value)
        buf.record(ev)
    order = draw(st.permutations(range(len(events))))
    for (ev, _), seq in zip(events, order):
        ev.seq = seq + 1000
    return buf


def buffer_doc(trace: TraceBuffer) -> dict:
    """Everything a loaded buffer consists of."""
    assert trace.groups is not None
    return {
        "events": [[repr(ev) for ev in trace.events_for(pe)]
                   for pe in range(trace.num_pes)],
        "kinds": [type(ev.kind) for pe in range(trace.num_pes)
                  for ev in trace.events_for(pe)],
        "total_events": trace.total_events,
        "seq": trace._seq,
        "groups": [trace.groups.members(g)
                   for g in range(len(trace.groups))],
        "phases": trace.phases,
        "attach_sink": trace.attach_sink,
        "sink": trace._sink,
        "capacity": trace.capacity,
    }


def assert_same_arrays(a, b) -> None:
    assert a.num_pes == b.num_pes
    assert a.group_sizes == b.group_sizes
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


def saved(trace: TraceBuffer, path: Path) -> bytes:
    save_trace_v2(trace, path)
    return path.read_bytes()


class TestBulkLoad:
    @settings(max_examples=60, deadline=None)
    @given(buffers())
    def test_matches_per_event_loader(self, tmp_path_factory, trace):
        tmp = tmp_path_factory.mktemp("v2")
        written = saved(trace, tmp / "a.jsonl")
        doc = json.loads(written)
        loaded = load_trace(tmp / "a.jsonl")
        assert buffer_doc(loaded) == buffer_doc(reference_buffer_from_v2(doc))
        assert loaded.total_events == trace.total_events
        assert saved(loaded, tmp / "b.jsonl") == written

    def test_never_restreams(self, tmp_path):
        """A loader's buffer must not bind to an ambient stream sink."""
        path = tmp_path / "t.jsonl"
        save_trace_v2(golden_buffer(), path)

        class Sink:
            bound = False

            def bind(self, buffer):
                self.bound = True
                return True

        with streaming_to(Sink()) as sink:
            loaded = load_trace(path)
        assert not sink.bound and loaded._sink is None

    def test_golden_file_bytes(self, tmp_path):
        """The writer's bytes are those of the commit before the shared
        extraction, and the golden file loads to the buffer it holds."""
        assert saved(golden_buffer(), tmp_path / "t.jsonl") \
            == GOLDEN.read_bytes()
        assert buffer_doc(load_trace(GOLDEN)) == buffer_doc(
            reference_buffer_from_v2(json.loads(GOLDEN.read_text())))


def _ragged(doc):
    doc["columns"]["size"].pop()


def _ragged_ranges(doc):
    doc["ranges"]["lstep"].append(0)


def _pe_disagrees(doc):
    doc["columns"]["pe"][0] = 1


def _counts_moved(doc):
    doc["counts"][0] -= 1
    doc["counts"][1] += 1


def _counts_short(doc):
    doc["counts"][0] -= 1


def _kind_too_large(doc):
    doc["columns"]["kind"][3] = len(EventKind)


def _kind_negative(doc):
    doc["columns"]["kind"][3] = -1


def _too_few_counts(doc):
    assert doc["counts"].pop(3) == 0


def _column_missing(doc):
    del doc["columns"]["target"]


class TestRefusals:
    """Today's loader refuses what the old one silently loaded into a
    differently shaped buffer."""

    @pytest.mark.parametrize("damage", [
        _ragged, _ragged_ranges, _pe_disagrees, _counts_moved,
        _counts_short, _kind_too_large, _kind_negative, _too_few_counts,
        _column_missing,
    ])
    def test_malformed_document(self, tmp_path, damage):
        doc = json.loads(GOLDEN.read_text())
        damage(doc)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SimulationError, match="bad.jsonl"):
            load_trace(path)


class TestSharedExtraction:
    @settings(max_examples=60, deadline=None)
    @given(buffers())
    def test_columns_match_per_field_decode(self, tmp_path_factory, trace):
        tmp = tmp_path_factory.mktemp("cols")
        reference = reference_columns_from_buffer(trace)
        # The writer runs first, as in TraceCache.put: the columns come
        # from the lists it left on the buffer.
        save_trace_v2(trace, tmp / "t.jsonl")
        assert_same_arrays(columns_from_buffer(trace), reference)
        save_columns_npz(trace, tmp / "c.npz")
        assert_same_arrays(load_columns_npz(tmp / "c.npz", coalesce=False),
                           reference)
        assert_same_arrays(load_trace_columns(tmp / "t.jsonl",
                                              coalesce=False), reference)
        assert_same_arrays(load_columns_npz(tmp / "c.npz"),
                           coalesce_columns(reference))

    def test_extraction_follows_the_buffer(self):
        """The cache is keyed on the event count: a coalesce that
        removes events and a newly recorded event both invalidate it."""
        trace = golden_buffer()
        before = columns_from_buffer(trace)
        assert columns_from_buffer(trace) is before
        trace.coalesce_compute()                # merges PE 0's COMPUTEs
        after = columns_from_buffer(trace)
        assert_same_arrays(after, reference_columns_from_buffer(trace))
        assert after.total_events == before.total_events - 1
        trace.record(TraceEvent(EventKind.COMPUTE, pe=3, work=1.0))
        assert_same_arrays(columns_from_buffer(trace),
                           reference_columns_from_buffer(trace))
