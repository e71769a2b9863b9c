"""Streaming trace writes (``ap1000-trace-stream-v2``).

The stream format's contract: a live run appends whole chunks in
bounded memory; the finished file loads back *exactly* like a
``--trace`` save and re-saves to its bytes (sanitizer footprints
included, on the shipped apps and on generated programs); a killed run
leaves a loadable prefix; a torn file is refused loudly everywhere
(loader, ``repro top``, bench cache) via the shared
:func:`repro.trace.io.ensure_intact`; ``repro top --follow`` counts
what the loader loads, wherever the file was cut while it grew.
"""

from __future__ import annotations

import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.errors import SimulationError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.obs.follow import FollowState
from repro.obs.micro import micro_trace
from repro.trace.buffer import TraceBuffer, streaming_to
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import (
    FORMAT_STREAM,
    StreamTraceWriter,
    ensure_intact,
    load_trace,
    load_trace_columns,
    save_trace,
)
from tests.programs import EVERY_OP, MEMORY, programs, round_program


def stream_micro(path, **writer_kw):
    """Record the micro workload with a streaming sink attached."""
    with StreamTraceWriter(path, **writer_kw) as writer:
        with streaming_to(writer):
            trace = micro_trace(4)
    return trace


def dump(trace) -> bytes:
    out = io.BytesIO()
    save_trace(trace, out)
    return out.getvalue()


def records(path) -> list[dict]:
    """The JSON lines of a stream file: header, chunk headers, footer."""
    data = path.read_bytes()
    end = data.index(b"\n")
    docs, at = [json.loads(data[:end])], end + 1
    while at < len(data):
        end = data.index(b"\n", at)
        docs.append(json.loads(data[at:end]))
        if "footer" in docs[-1]:
            break
        row = sum(np.dtype(code).itemsize for _, code in docs[-1]["block"])
        at = end + 1 + docs[-1]["total"] * row + 1
    return docs


class TestWriter:
    def test_stream_loads_back_byte_identical(self, tmp_path):
        path = tmp_path / "micro.stream.trc"
        recorded = stream_micro(path, flush_events=5)
        assert len(records(path)) > 3            # several chunks
        assert dump(load_trace(path)) == dump(recorded)

    def test_header_then_events_then_footer(self, tmp_path):
        path = tmp_path / "s.trc"
        stream_micro(path)
        docs = records(path)
        header, footer = docs[0], docs[-1]
        assert header["format"] == FORMAT_STREAM
        assert header["num_pes"] == 4
        assert footer["footer"] == FORMAT_STREAM
        assert footer["total_events"] == sum(footer["counts"]) \
            == sum(doc["total"] for doc in docs[1:-1])

    def test_phase_labels_ride_in_chunk_headers(self, tmp_path):
        path = tmp_path / "s.trc"
        stream_micro(path, flush_events=3)
        labels = [label for doc in records(path)[1:-1]
                  for label in doc["phases"]]
        assert labels == ["init", "exchange", "reduce"]
        assert load_trace(path).phases == ("init", "exchange", "reduce")

    def test_flush_chunking_writes_complete_lines(self, tmp_path):
        path = tmp_path / "s.trc"
        writer = StreamTraceWriter(path, flush_events=2)
        with streaming_to(writer):
            buf = TraceBuffer(num_pes=1, capacity=64)
        for _ in range(3):
            buf.record(TraceEvent(kind=EventKind.COMPUTE, pe=0, work=1))
        # 3 events with flush_events=2: one chunk written, one pending.
        assert path.read_bytes().endswith(b"\n")
        assert [doc.get("total") for doc in records(path)] == [None, 2]
        state = FollowState(path)
        assert state.poll() == 2 and state.total_events == 2
        writer.close()
        assert load_trace(path).total_events == 3

    def test_held_event_rewritten_later_streams_as_recorded(self,
                                                            tmp_path):
        """The writer keeps field values, not the event object: a
        coalesce rewriting a held event does not reach the file."""
        path = tmp_path / "s.trc"
        writer = StreamTraceWriter(path)
        with streaming_to(writer):
            buf = TraceBuffer(num_pes=1, capacity=64)
        for work in (1.0, 2.0):
            buf.record(TraceEvent(kind=EventKind.COMPUTE, pe=0, work=work))
        buf.coalesce_compute()
        writer.close()
        assert [ev.work for ev in load_trace(path).all_events()] \
            == [1.0, 2.0]

    def test_binds_only_the_first_buffer(self, tmp_path):
        writer = StreamTraceWriter(tmp_path / "s.trc")
        with streaming_to(writer):
            first = TraceBuffer(num_pes=2, capacity=16)
            second = TraceBuffer(num_pes=2, capacity=16)
        assert first._sink is writer
        assert second._sink is None
        writer.close()

    def test_loaders_never_rebind_the_sink(self, tmp_path):
        # Loading a trace inside a streaming context must not re-stream
        # the loaded events into the live file.
        path = tmp_path / "s.trc"
        stream_micro(path)
        live = tmp_path / "live.trc"
        with StreamTraceWriter(live) as writer:
            with streaming_to(writer):
                loaded = load_trace(path)
        assert loaded._sink is None
        assert not live.exists()  # never bound, never opened

    def test_checkpoint_pickling_drops_the_sink(self, tmp_path):
        writer = StreamTraceWriter(tmp_path / "s.trc")
        with streaming_to(writer):
            buf = TraceBuffer(num_pes=1, capacity=16)
        buf.record(TraceEvent(kind=EventKind.COMPUTE, pe=0, work=1))
        clone = pickle.loads(pickle.dumps(buf))
        assert clone._sink is None
        assert clone.total_events == 1
        writer.close()

    def test_columns_load_from_stream_format(self, tmp_path):
        path = tmp_path / "s.trc"
        recorded = stream_micro(path)
        cols = load_trace_columns(path, coalesce=False)
        assert cols.total_events == recorded.total_events


class TestSanitizedStream:
    def test_footprints_reach_the_stream(self, tmp_path, capsys):
        """The sanitizer stamps an event before it is recorded, so the
        live file carries every PUT/GET footprint and checks exactly
        like the ``--trace`` file of the same run."""
        stream, saved = tmp_path / "s.trc", tmp_path / "t.trc"
        assert main(["run", "MatMul", "--cells", "4", "--sanitize",
                     "--no-replay", "--stream", str(stream),
                     "--trace", str(saved)]) == 0
        streamed, recorded = load_trace(stream), load_trace(saved)
        assert dump(streamed) == dump(recorded)
        transfers = [ev for ev in streamed.all_events()
                     if ev.kind in (EventKind.PUT, EventKind.GET)
                     and ev.size]
        assert transfers and all(ev.is_annotated() for ev in transfers)
        capsys.readouterr()
        reports = []
        for path in (stream, saved):
            code = main(["check", "--trace", str(path)])
            reports.append((code, capsys.readouterr().out.replace(
                str(path), "TRACE")))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0 and "clean" in reports[0][1]


@settings(max_examples=25, deadline=None)
@given(cells=st.sampled_from([4, 5]), steps=programs,
       sanitize=st.booleans(), flush_events=st.integers(1, 16),
       cuts=st.lists(st.floats(0, 1), max_size=6))
@example(cells=5, steps=EVERY_OP, sanitize=True, flush_events=3, cuts=[])
def test_generated_programs_stream_as_they_save(
        tmp_path_factory, cells, steps, sanitize, flush_events, cuts):
    """A streamed run re-saves to the bytes of its recorded trace, and
    ``repro top --follow`` fed the file in pieces counts what loads."""
    tmp = tmp_path_factory.mktemp("gen")
    path = tmp / "s.trc"
    with StreamTraceWriter(path, flush_events=flush_events) as writer, \
            streaming_to(writer):
        machine = Machine(MachineConfig(
            num_cells=cells, memory_per_cell=MEMORY, sanitize=sanitize))
        machine.run(round_program, steps=steps)
    loaded = load_trace(path)
    assert dump(loaded) == dump(machine.trace)
    data = path.read_bytes()
    growing = tmp / "growing.trc"
    state = FollowState(growing)
    for cut in [*sorted(int(c * len(data)) for c in cuts), len(data)]:
        growing.write_bytes(data[:cut])
        state.poll()
    assert state.complete
    assert state.total_events == loaded.total_events
    assert state.pe_events == [len(loaded.events_for(pe))
                               for pe in range(cells)]
    assert state.phase_labels == list(loaded.phases)


class TestCrashTolerance:
    def test_footerless_prefix_loads_best_effort(self, tmp_path):
        path = tmp_path / "s.trc"
        stream_micro(path, flush_events=5)
        data = path.read_bytes()
        partial = tmp_path / "killed.trc"
        partial.write_bytes(data[:data.rindex(b'{"footer"')])
        loaded = load_trace(partial)
        assert 0 < loaded.total_events == micro_trace(4).total_events

    def test_empty_file_is_refused(self, tmp_path):
        path = tmp_path / "empty.trc"
        path.write_text("")
        with pytest.raises(SimulationError, match="empty"):
            ensure_intact(path)

    def test_torn_last_line_is_refused(self, tmp_path):
        path = tmp_path / "torn.trc"
        stream_micro(path)
        path.write_bytes(path.read_bytes()[:-3])  # tear the footer
        with pytest.raises(SimulationError, match="truncated"):
            load_trace(path)

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(SimulationError):
            ensure_intact(tmp_path / "missing.trc")

    def test_corrupt_stream_line_is_a_clean_error(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text(
            json.dumps({"format": FORMAT_STREAM, "num_pes": 1}) + "\n"
            + "{not json}\n")
        with pytest.raises(SimulationError, match="bad.trc"):
            load_trace(path)

    def test_chunk_cut_short_is_refused(self, tmp_path):
        path = tmp_path / "s.trc"
        stream_micro(path, flush_events=5)
        data = path.read_bytes()
        cut = tmp_path / "cut.trc"
        cut.write_bytes(data[:data.index(b"\n", 60) + 20] + b"\n")
        with pytest.raises(SimulationError, match="cut.trc"):
            load_trace(cut)

    def test_footer_total_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "s.trc"
        stream_micro(path)
        data = path.read_bytes()
        at = data.rindex(b'{"footer"')
        footer = json.loads(data[at:])
        footer["total_events"] += 5
        path.write_bytes(data[:at] + json.dumps(footer).encode() + b"\n")
        with pytest.raises(SimulationError, match="total_events|events"):
            load_trace(path)
