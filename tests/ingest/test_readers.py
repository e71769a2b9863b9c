"""Reader plugins: registry, sniffing, VEF text, MPI JSON lines.

Every malformed input must raise a structured
:class:`~repro.core.errors.IngestError` naming the file and line —
foreign traces come from other people's tools, so parse failures are
user errors, never tracebacks.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.errors import IngestError, ReproError
from repro.ingest.events import ForeignEvent, ForeignOp, parse_op
from repro.ingest.readers import (
    get_reader,
    read_events,
    reader_names,
    register_reader,
    sniff_reader,
)

EXAMPLES = Path(__file__).parents[2] / "examples" / "ingest"


class TestRegistry:
    def test_shipped_readers_self_register(self):
        assert {"vef", "mpijson"} <= set(reader_names())

    def test_unknown_reader_is_a_structured_error(self):
        with pytest.raises(IngestError, match="no reader named"):
            get_reader("nope")

    def test_ingest_error_is_a_repro_error(self):
        # The CLI's clean-exit path catches ReproError.
        assert issubclass(IngestError, ReproError)

    def test_register_reader_decorator(self, monkeypatch):
        from repro.ingest import readers as mod

        monkeypatch.setattr(mod, "_READERS", dict(mod._READERS))

        @register_reader("custom")
        def read_custom(path):
            yield ForeignEvent(op=ForeignOp.BARRIER, rank=0,
                               timestamp=0.0)

        assert get_reader("custom") is read_custom
        with pytest.raises(IngestError, match="already registered"):
            register_reader("custom")(read_custom)


class TestSniffing:
    def test_vef_by_extension(self, tmp_path):
        p = tmp_path / "a.vef"
        p.write_text("VEFT 1\n")
        assert sniff_reader(p) == "vef"

    def test_jsonl_by_extension(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_text("{}\n")
        assert sniff_reader(p) == "mpijson"

    def test_content_sniff_without_extension(self, tmp_path):
        vef = tmp_path / "trace"
        vef.write_text("VEFT 2\n")
        assert sniff_reader(vef) == "vef"
        js = tmp_path / "other"
        js.write_text('{"t": 0}\n')
        assert sniff_reader(js) == "mpijson"

    def test_unsniffable_is_a_structured_error(self, tmp_path):
        p = tmp_path / "mystery"
        p.write_text("???\n")
        with pytest.raises(IngestError, match="--reader"):
            sniff_reader(p)


class TestOpAliases:
    @pytest.mark.parametrize("token,op", [
        ("mpi_isend", ForeignOp.SEND),
        ("irecv", ForeignOp.RECV),
        ("shmem_put", ForeignOp.PUT),
        ("rma_get", ForeignOp.GET),
        ("quiet", ForeignOp.WAIT),
        ("MPI_Barrier", ForeignOp.BARRIER),
        ("allreduce", ForeignOp.REDUCE),
        ("comp", ForeignOp.COMPUTE),
    ])
    def test_alias_resolves(self, token, op):
        assert parse_op(token, source="x", line=1) is op

    def test_unknown_verb_names_file_and_line(self):
        with pytest.raises(IngestError, match=r"t\.vef:7"):
            parse_op("teleport", source="t.vef", line=7)


class TestVefReader:
    def test_reads_the_shipped_sample(self):
        events = list(read_events(EXAMPLES / "ring4.vef"))
        assert len(events) == 24
        assert {ev.rank for ev in events} == {0, 1, 2, 3}
        puts = [ev for ev in events if ev.op is ForeignOp.PUT]
        assert all(ev.size == 4096 for ev in puts)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "t.vef"
        p.write_text("VEFT 1\n\n# note\n0.0 0 compute 5 # tail\n")
        events = list(read_events(p))
        assert [ev.work for ev in events] == [5.0]

    @pytest.mark.parametrize("body,match", [
        ("nonsense\n", "VEFT"),
        ("VEFT\n", "rank count"),
        ("VEFT 0\n", "positive"),
        ("VEFT 2\n0.0 0\n", "at least"),
        ("VEFT 2\nx 0 barrier\n", "timestamp"),
        ("VEFT 2\n0.0 5 barrier\n", "outside the header"),
        ("VEFT 2\n0.0 0 compute\n", "duration"),
        ("VEFT 2\n0.0 0 put\n", "peer"),
        ("VEFT 2\n0.0 0 put one\n", "integer"),
        ("VEFT 2\n0.0 0 teleport\n", "unknown op"),
    ])
    def test_malformed_records_fail_structurally(
            self, tmp_path, body, match):
        p = tmp_path / "bad.vef"
        p.write_text(body)
        with pytest.raises(IngestError, match=match) as err:
            list(read_events(p))
        assert "bad.vef" in str(err.value)


class TestMpiJsonReader:
    def test_reads_the_shipped_sample(self):
        events = list(read_events(EXAMPLES / "pingpong.jsonl"))
        assert len(events) == 17
        assert {ev.rank for ev in events} == {0, 1}

    def test_key_aliases(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"ts": 1.5, "pe": 0, "event": "isend", '
                     '"dst": 1, "len": 64, "comm_tag": 9}\n')
        (ev,) = read_events(p)
        assert (ev.op, ev.timestamp, ev.peer, ev.size, ev.tag) == (
            ForeignOp.SEND, 1.5, 1, 64, 9)

    @pytest.mark.parametrize("body,match", [
        ("not json\n", "invalid JSON"),
        ("[1]\n", "JSON object"),
        ('{"t": 0, "rank": 0}\n', "'op'"),
        ('{"t": 0, "op": "barrier"}\n', "'rank'"),
        ('{"rank": 0, "op": "barrier"}\n', "timestamp"),
        ('{"t": true, "rank": 0, "op": "barrier"}\n', "number"),
        ('{"t": 0, "rank": 0.5, "op": "barrier"}\n', "integer"),
    ])
    def test_malformed_records_fail_structurally(
            self, tmp_path, body, match):
        p = tmp_path / "bad.jsonl"
        p.write_text(body)
        with pytest.raises(IngestError, match=match):
            list(read_events(p))
