"""The v2 column block against its references (``reference.py``), on
generated buffers pushed through every decoder.

The block replaced a JSON ``columns`` table and a per-event build: the
loaded buffers and the replay columns must be what the slow code
produced from the same trace in any encoding, a loaded trace must be
written from the arrays it was mapped to without building an event,
and a file that does not describe one buffer must be refused with the
file's name.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import preset
from repro.trace.buffer import (
    EVENT_FIELDS,
    RANGE_FIELDS,
    TraceBuffer,
    streaming_to,
)
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import (
    StreamTraceWriter,
    load_trace,
    load_trace_columns,
    save_trace,
)
from repro.trace.soa import coalesce_columns, columns_from_buffer

from .reference import (
    buffer_doc,
    golden_buffer,
    reference_buffer_from_v2,
    reference_columns_from_buffer,
    reference_stream_v1_text,
    reference_v1_text,
    reference_v2_json,
    with_seq,
)
from tests.trace.views import all_events, events_for, record

GOLDEN_JSON = Path(__file__).parent / "golden" / "small.v2.jsonl"
GOLDEN = Path(__file__).parent / "golden" / "small.v2.bin"
GOLDEN_V1 = Path(__file__).parent / "golden" / "small.v1.jsonl"
GOLDEN_STREAM_V1 = Path(__file__).parent / "golden" / "small.stream-v1.jsonl"
#: What the last commit with the v1 writer made of ``GOLDEN_V1``: its
#: loader's buffer, written by its ``save_trace_v2``.
V1_RESAVED_SHA256 = (
    "6da3b565b6a45dec74275f643a86e20843c7384aa24b30b935db99770afc3c55")

ARRAYS = ("starts", "kind", "partner", "size", "send_flag", "recv_flag",
          "msg_id", "flag", "target", "group", "group_size", "work")


@st.composite
def buffers(draw, shuffle_seq: bool = True) -> TraceBuffer:
    """Any buffer the recorder could hand the writer: every event kind,
    PEs without events (or no events at all), sub-groups, phases,
    ``partner`` of -1, sanitizer ranges on some events or none, columns
    that need one byte and columns that need eight (``seq`` and
    ``msg_id`` above 2**31), and — unless ``shuffle_seq`` is off, for
    the line formats that store events in ``seq`` order — ``seq`` values
    that are not the record order."""
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
    wide = st.one_of(small, st.integers(1 << 31, 1 << 40))
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
        recv_flag=small, is_ack=st.booleans(), msg_id=wide, flag=small,
        target=st.integers(0, 64),
        group=st.integers(0, len(buf.groups) - 1),
        group_size=st.integers(0, n),
        work=st.floats(0.0, 1e9, allow_nan=False),
    )
    events = draw(st.lists(st.tuples(event, ranges), max_size=40))
    for ev, extra in events:
        for name, value in extra.items():
            setattr(ev, name, value)
        record(buf, ev)
    order = (draw(st.permutations(range(len(events)))) if shuffle_seq
             else range(len(events)))
    base = draw(st.sampled_from((0, 1000, 1 << 31, 1 << 40)))
    return with_seq(buf, [seq + base for seq in order])


def assert_same_arrays(a, b) -> None:
    assert a.num_pes == b.num_pes
    assert a.group_sizes == b.group_sizes
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


def saved(trace: TraceBuffer, path: Path) -> bytes:
    save_trace(trace, path)
    return path.read_bytes()


def write_json_v2(trace: TraceBuffer, path: Path) -> dict:
    doc = reference_v2_json(trace)
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return doc


def write_stream(trace: TraceBuffer, path: Path, flush_events=7) -> None:
    """``trace`` as the stream writer would have written it live, had
    the run recorded its events PE after PE."""
    with StreamTraceWriter(path, flush_events=flush_events) as writer:
        assert writer.bind(trace)
        for pid, label in enumerate(trace.phases, start=1):
            writer.phase(label, pid)
        for pe in range(trace.num_pes):
            for ev in events_for(trace, pe):
                names = EVENT_FIELDS + RANGE_FIELDS * ev.is_annotated()
                writer.emit(tuple(getattr(ev, name) for name in names))


def in_seq_order(trace: TraceBuffer) -> TraceBuffer:
    """``trace`` recorded in ``seq`` order: what a line file, which
    stores its events that way, holds of it."""
    out = TraceBuffer(num_pes=trace.num_pes, capacity=1 << 62,
                      groups=trace.groups, attach_sink=False)
    for label in trace.phases:
        out.phase_id(label)
    events = all_events(trace)
    seqs = [ev.seq for ev in events]
    for ev in events:
        record(out, ev)
    return with_seq(out, seqs)


def events_built(action) -> int:
    """How many ``TraceEvent``s ``action()`` constructs, wherever."""
    code, built = TraceEvent.__init__.__code__, 0

    def profiler(frame, event, _arg):
        nonlocal built
        if event == "call" and frame.f_code is code:
            built += 1

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return built


class TestBulkLoad:
    @settings(max_examples=60, deadline=None)
    @given(buffers())
    def test_matches_per_event_loader(self, tmp_path_factory, trace):
        """Block, stream and JSON ``columns`` encodings of one trace
        load to the buffer the per-event reference builds, and a loaded
        trace is written back byte for byte."""
        tmp = tmp_path_factory.mktemp("v2")
        written = saved(trace, tmp / "a.bin")
        doc = write_json_v2(trace, tmp / "a.jsonl")
        reference = buffer_doc(reference_buffer_from_v2(doc))
        loaded = load_trace(tmp / "a.bin")
        assert loaded.total_events == trace.total_events
        assert saved(loaded, tmp / "b.bin") == written   # from the arrays
        assert buffer_doc(loaded) == reference
        assert saved(loaded, tmp / "c.bin") == written   # from the events
        from_json = load_trace(tmp / "a.jsonl")
        assert saved(from_json, tmp / "d.bin") == written
        assert buffer_doc(from_json) == reference
        write_stream(trace, tmp / "a.trc", flush_events=3)
        from_stream = load_trace(tmp / "a.trc")
        assert saved(from_stream, tmp / "e.bin") == written
        assert buffer_doc(from_stream) == reference

    @settings(max_examples=40, deadline=None)
    @given(buffers(shuffle_seq=False))
    def test_line_formats_load_the_same_buffer(self, tmp_path_factory,
                                               trace):
        """v1 and stream-v1 files of a trace load to the buffer its
        block loads to (they store events in ``seq`` order, so only a
        trace recorded in that order has the same per-PE lists)."""
        tmp = tmp_path_factory.mktemp("lines")
        save_trace(trace, tmp / "t.bin")
        (tmp / "t.v1.jsonl").write_text(reference_v1_text(trace))
        (tmp / "t.stream.jsonl").write_text(reference_stream_v1_text(trace))
        block = load_trace(tmp / "t.bin")
        for name in ("t.v1.jsonl", "t.stream.jsonl"):
            assert_same_arrays(
                load_trace_columns(tmp / name, coalesce=False),
                columns_from_buffer(block))
            assert buffer_doc(load_trace(tmp / name)) == buffer_doc(block)

    def test_never_restreams(self, tmp_path):
        """A loader's buffer must not bind to an ambient stream sink."""
        path = tmp_path / "t.trc"
        save_trace(golden_buffer(), path)

        class Sink:
            bound = False

            def bind(self, buffer):
                self.bound = True
                return True

        with streaming_to(Sink()) as sink:
            loaded = load_trace(path)
            events_for(loaded, 0)
        assert not sink.bound and loaded._sink is None

    def test_golden_file_bytes(self, tmp_path):
        """The writer's bytes are pinned; the golden of the old JSON
        encoding (written by nothing now) still loads, to the same
        buffer, and is what the reference writer produces."""
        assert saved(golden_buffer(), tmp_path / "t.bin") \
            == GOLDEN.read_bytes()
        old = json.loads(GOLDEN_JSON.read_text())
        assert reference_v2_json(golden_buffer()) == old
        reference = buffer_doc(reference_buffer_from_v2(old))
        assert buffer_doc(load_trace(GOLDEN)) == reference
        assert buffer_doc(load_trace(GOLDEN_JSON)) == reference
        assert saved(load_trace(GOLDEN_JSON), tmp_path / "u.bin") \
            == GOLDEN.read_bytes()

    def test_line_format_goldens(self, tmp_path):
        """The v1 and stream-v1 files the last commit with those
        writers made of the golden trace (the reference writers make
        them again) load to what that commit loaded them to."""
        gold = golden_buffer()
        pe_major = [ev for pe in range(gold.num_pes)
                    for ev in events_for(gold, pe)]
        assert reference_v1_text(gold) == GOLDEN_V1.read_text()
        assert reference_stream_v1_text(gold, pe_major) \
            == GOLDEN_STREAM_V1.read_text()
        # Written PE after PE, the stream holds the golden trace itself.
        stream = load_trace(GOLDEN_STREAM_V1)
        assert buffer_doc(stream) == buffer_doc(load_trace(GOLDEN))
        assert saved(stream, tmp_path / "s.bin") == GOLDEN.read_bytes()
        # A v1 file holds it in seq order, which golden_buffer shuffles.
        v1 = load_trace(GOLDEN_V1)
        assert buffer_doc(v1) == buffer_doc(in_seq_order(gold))
        resaved = saved(v1, tmp_path / "v.bin")
        assert hashlib.sha256(resaved).hexdigest() == V1_RESAVED_SHA256
        assert resaved == saved(in_seq_order(gold), tmp_path / "w.bin")

    def test_loaded_trace_builds_no_event(self, tmp_path):
        """File -> memory -> file -> replay on columns alone."""
        params = preset("ap1000+")

        def warm_path():
            trace = load_trace(GOLDEN)
            save_trace(trace, tmp_path / "copy.bin")
            replay_columns(columns_from_buffer(trace), params,
                           collect_metrics=True)
            replay_columns(load_trace_columns(tmp_path / "copy.bin"),
                           params)

        assert events_built(warm_path) == 0
        # The counter does count: asking for the events builds them all.
        assert events_built(lambda: all_events(load_trace(GOLDEN))) == 26


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


def _split(data: bytes) -> tuple[dict, bytearray]:
    head, _, body = data.partition(b"\n")
    return json.loads(head), bytearray(body)


def _joined(header: dict, body: bytes) -> bytes:
    return json.dumps(header, separators=(",", ":")).encode() + b"\n" + body


def _column_at(header: dict, name: str) -> int:
    """Byte offset of column ``name`` in the block."""
    offset = 0
    for column, code in header["block"]:
        if column == name:
            return offset
        offset += header["total"] * np.dtype(code).itemsize
    raise KeyError(name)


def _block_short(header, body):
    del body[len(body) // 2:]
    body += b"\n"            # looks intact to ensure_intact


def _block_trailing(header, body):
    body += b"\x00\n"


def _total_up(header, body):
    header["total"] += 1


def _total_down(header, body):
    header["total"] -= 1


def _total_negative(header, body):
    header["total"] = -1


def _block_counts_moved(header, body):
    header["counts"][0] -= 1
    header["counts"][1] += 1


def _block_counts_short(header, body):
    header["counts"][0] -= 1


def _block_too_few_counts(header, body):
    assert header["counts"].pop(3) == 0


def _block_pe_disagrees(header, body):
    body[_column_at(header, "pe")] = 1


def _block_kind_too_large(header, body):
    body[_column_at(header, "kind") + 3] = len(EventKind)


def _block_kind_negative(header, body):
    body[_column_at(header, "kind") + 3] = 0xFF


def _block_column_missing(header, body):
    assert ["target", "|i1"] in header["block"]
    at = _column_at(header, "target")
    del body[at:at + header["total"]]
    header["block"] = [c for c in header["block"] if c[0] != "target"]


def _block_half_the_ranges(header, body):
    assert ["lstep", "|i1"] in header["block"]
    at = _column_at(header, "lstep")
    del body[at:at + header["total"]]
    header["block"] = [c for c in header["block"] if c[0] != "lstep"]


def _block_unknown_column(header, body):
    header["block"][3][0] = "colour"


def _block_big_endian(header, body):
    assert header["block"][4] == ["size", "<i2"]
    header["block"][4][1] = ">i2"


def _block_int_as_bool(header, body):
    assert header["block"][5] == ["stride", "|b1"]
    header["block"][5][1] = "|i1"


def _block_layout_missing(header, body):
    del header["block"]      # nor "columns": neither encoding


class TestRefusals:
    """The loader refuses what does not describe one buffer, in either
    encoding, instead of loading it into a differently shaped one."""

    @pytest.mark.parametrize("damage", [
        _ragged, _ragged_ranges, _pe_disagrees, _counts_moved,
        _counts_short, _kind_too_large, _kind_negative, _too_few_counts,
        _column_missing,
    ])
    def test_malformed_document(self, tmp_path, damage):
        doc = json.loads(GOLDEN_JSON.read_text())
        damage(doc)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SimulationError, match="bad.jsonl"):
            load_trace(path)

    @pytest.mark.parametrize("damage", [
        _block_short, _block_trailing, _total_up, _total_down,
        _total_negative, _block_counts_moved, _block_counts_short,
        _block_too_few_counts, _block_pe_disagrees, _block_kind_too_large,
        _block_kind_negative, _block_column_missing,
        _block_half_the_ranges, _block_unknown_column, _block_big_endian,
        _block_int_as_bool, _block_layout_missing,
    ])
    def test_malformed_block(self, tmp_path, damage):
        header, body = _split(GOLDEN.read_bytes())
        damage(header, body)
        path = tmp_path / "bad.bin"
        path.write_bytes(_joined(header, bytes(body)))
        with pytest.raises(SimulationError, match="bad.bin"):
            load_trace(path)
        with pytest.raises(SimulationError, match="bad.bin"):
            load_trace_columns(path)

    @pytest.mark.parametrize("golden, old, new", [
        (GOLDEN_STREAM_V1, '"id": 2', '"id": 3'),      # a phase skipped
        (GOLDEN_V1, '"pe": 0, ', ""),                  # an event, no PE
        (GOLDEN_V1, '"kind": 17', '"kind": 99'),       # no such kind
    ])
    def test_malformed_line_file(self, tmp_path, golden, old, new):
        path = tmp_path / "bad.jsonl"
        path.write_text(golden.read_text().replace(old, new, 1))
        with pytest.raises(SimulationError, match="bad.jsonl"):
            load_trace(path)

    def test_undamaged_block_loads(self, tmp_path):
        """The harness above rewrites the file it damages faithfully."""
        header, body = _split(GOLDEN.read_bytes())
        assert _joined(header, bytes(body)) == GOLDEN.read_bytes()

    def test_block_needs_a_binary_stream(self):
        import io

        with pytest.raises(SimulationError, match="binary"):
            load_trace(io.StringIO(GOLDEN.read_bytes().decode("latin-1")))
        with GOLDEN.open("rb") as fh:
            assert load_trace(fh).total_events == 26

    def test_mapped_columns_are_read_only(self):
        """Arrays over the file's bytes are views; whoever writes
        copies — and so are the arrays made from recorded events."""
        for trace in (load_trace(GOLDEN), golden_buffer()):
            columns = columns_from_buffer(trace)
            with pytest.raises(ValueError, match="read-only"):
                columns.work[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                trace.block()["size"][0] = 1
            columns.size[0] = 1          # widened columns are copies


class TestSharedExtraction:
    @settings(max_examples=60, deadline=None)
    @given(buffers())
    def test_columns_match_per_field_decode(self, tmp_path_factory, trace):
        tmp = tmp_path_factory.mktemp("cols")
        reference = reference_columns_from_buffer(trace)
        # The writer runs first, as in TraceCache.put: the columns come
        # from the block it left on the buffer.
        save_trace(trace, tmp / "t.bin")
        assert_same_arrays(columns_from_buffer(trace), reference)
        loaded = load_trace(tmp / "t.bin")
        assert_same_arrays(columns_from_buffer(loaded), reference)
        assert_same_arrays(load_trace_columns(tmp / "t.bin",
                                              coalesce=False), reference)
        assert_same_arrays(load_trace_columns(tmp / "t.bin"),
                           coalesce_columns(reference))
        loaded.coalesce_compute()
        assert_same_arrays(load_trace_columns(tmp / "t.bin"),
                           columns_from_buffer(loaded))

    def test_extraction_follows_the_buffer(self):
        """The block is kept under (events recorded, events held): a
        coalesce that removes events and a newly recorded event both
        invalidate it, also when together they restore the count."""
        trace = golden_buffer()
        before = columns_from_buffer(trace)
        assert columns_from_buffer(trace) is before
        trace.coalesce_compute()                # merges PE 0's COMPUTEs
        after = columns_from_buffer(trace)
        assert_same_arrays(after, reference_columns_from_buffer(trace))
        assert after.total_events == before.total_events - 1
        record(trace, TraceEvent(EventKind.COMPUTE, pe=3, work=1.0))
        assert_same_arrays(columns_from_buffer(trace),
                           reference_columns_from_buffer(trace))
        record(trace, TraceEvent(EventKind.COMPUTE, pe=3, work=2.0))
        trace.coalesce_compute()                # the count is as it was
        assert_same_arrays(columns_from_buffer(trace),
                           reference_columns_from_buffer(trace))


class TestStaleness:
    """The one rule of ``TraceBuffer``: a held block answers for the
    buffer while the events recorded and the events held stand."""

    def test_event_views_keep_the_block(self):
        """Events are views of the block: asking for them keeps it (and
        builds no rows), editing one changes nothing, and recording into
        a loaded buffer turns it into rows without losing an event."""
        trace = load_trace(GOLDEN)
        block = trace.block()
        events_for(trace, 2)[0].size += 1
        assert trace.block() is block and trace._rows is None
        assert all_events(trace) == all_events(load_trace(GOLDEN))
        record(trace, TraceEvent(EventKind.SPILL, pe=3, size=4))
        assert trace.block() is not block
        assert events_for(trace, 3)[-1].seq == 26
        assert events_for(trace, 2) == events_for(load_trace(GOLDEN), 2)

    @settings(max_examples=40, deadline=None)
    @given(buffers(), st.sampled_from(("coalesce", "record")))
    def test_mutated_load_is_saved_as_mutated(self, tmp_path_factory,
                                              trace, mutation):
        tmp = tmp_path_factory.mktemp("stale")
        save_trace(trace, tmp / "a.bin")
        loaded = load_trace(tmp / "a.bin")
        columns_from_buffer(loaded)              # every cache is warm
        if mutation == "coalesce":
            loaded.coalesce_compute()
        else:
            record(loaded, TraceEvent(EventKind.PUT, pe=0, partner=0,
                                      size=1 << 33))
        save_trace(loaded, tmp / "b.bin")
        saved_doc = buffer_doc(load_trace(tmp / "b.bin"))
        # A file holds the events, not how many were ever recorded.
        assert saved_doc == buffer_doc(loaded) | {"seq": saved_doc["seq"]}
        assert_same_arrays(load_trace_columns(tmp / "b.bin",
                                              coalesce=False),
                           reference_columns_from_buffer(loaded))
        assert_same_arrays(columns_from_buffer(loaded),
                           reference_columns_from_buffer(loaded))
