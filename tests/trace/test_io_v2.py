"""Columnar (v2) trace format: roundtrip, file shape, and fast path.

Everything writes v2; readers sniff the format, so a v1 file (imported,
written by nothing) and the v2 file of one trace must load into buffers
that save to the same bytes, and the column fast path must produce
exactly the arrays the event-object path produces.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.apps.workloads import workload
from repro.core.errors import SimulationError
from repro.machine.config import MachineConfig
from repro.mlsim.engine_soa import trace_index
from repro.trace.io import (
    load_trace,
    load_trace_columns,
    save_columns_npz,
    save_trace,
    save_trace_v2,
)
from repro.trace.soa import columns_from_buffer

from .reference import reference_v1_text
from tests.trace.views import all_events


@pytest.fixture(scope="module")
def recorded():
    """A sanitized MatMul run: PUT traffic (so byte-range annotations),
    collectives, and phases all present."""
    run = workload("MatMul").runner(num_cells=4, n=32,
                                    config=MachineConfig(sanitize=True))
    return run.trace


def events_doc(trace):
    return [repr(ev) for ev in all_events(trace)]


def dump(trace) -> bytes:
    out = io.BytesIO()
    save_trace(trace, out)
    return out.getvalue()


def assert_columns_equal(a, b):
    assert a.num_pes == b.num_pes
    assert a.group_sizes == b.group_sizes
    for name in ("starts", "kind", "partner", "size", "send_flag",
                 "recv_flag", "msg_id", "flag", "target", "group",
                 "group_size", "work"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)


class TestRoundTrip:
    def test_v2_buffer_matches_v1(self, recorded, tmp_path):
        v1, v2 = tmp_path / "t.v1.jsonl", tmp_path / "t.trc"
        v1.write_text(reference_v1_text(recorded))
        save_trace(recorded, v2)
        a, b = load_trace(v1), load_trace(v2)
        assert events_doc(a) == events_doc(b) == events_doc(recorded)
        assert dump(a) == dump(b) == v2.read_bytes() == dump(recorded)
        save_trace_v2(recorded, tmp_path / "alias.trc")   # one writer
        assert (tmp_path / "alias.trc").read_bytes() == v2.read_bytes()
        assert a.num_pes == b.num_pes == recorded.num_pes
        assert list(a.phases) == list(b.phases) == list(recorded.phases)
        assert len(a.groups) == len(recorded.groups)
        for gid in range(len(recorded.groups)):
            assert b.groups.members(gid) == recorded.groups.members(gid)

    def test_v2_preserves_sanitizer_ranges(self, recorded, tmp_path):
        path = tmp_path / "t.v2.jsonl"
        save_trace(recorded, path)
        reloaded = load_trace(path)
        annotated = [ev for ev in all_events(recorded)
                     if ev.is_annotated()]
        assert annotated, "fixture should carry sanitizer annotations"
        by_seq = {ev.seq: ev for ev in all_events(reloaded)}
        for ev in annotated:
            assert by_seq[ev.seq].raddr == ev.raddr
            assert by_seq[ev.seq].laddr == ev.laddr

    def test_v2_is_header_line_and_block(self, recorded, tmp_path):
        """One JSON line that says how long the rest is, the columns,
        a closing newline: nothing else, whatever the block's bytes."""
        path = tmp_path / "t.v2.jsonl"
        save_trace(recorded, path)
        data = path.read_bytes()
        head, _, body = data.partition(b"\n")
        header = json.loads(head)
        assert header["total"] == recorded.total_events
        assert sum(header["counts"]) == header["total"]
        row = sum(np.dtype(code).itemsize for _, code in header["block"])
        assert len(body) == header["total"] * row + 1
        assert body.endswith(b"\n")
        assert all(code[0] in "<|" for _, code in header["block"])
        assert "columns" not in header


class TestColumnsFastPath:
    def test_columns_match_buffer_decode(self, recorded, tmp_path):
        v1, v2 = tmp_path / "t.v1.jsonl", tmp_path / "t.trc"
        v1.write_text(reference_v1_text(recorded))
        save_trace(recorded, v2)
        direct = load_trace_columns(v2)
        via_v1 = load_trace_columns(v1)
        recorded.coalesce_compute()
        in_memory = columns_from_buffer(recorded)
        assert_columns_equal(direct, via_v1)
        assert_columns_equal(direct, in_memory)

    def test_uncoalesced_columns(self, recorded, tmp_path):
        path = tmp_path / "t.v2.jsonl"
        save_trace(recorded, path)
        raw = load_trace_columns(path, coalesce=False)
        assert len(raw.kind) == recorded.total_events


class TestBlockIsTheReplayColumns:
    def test_block_matches_buffer_columns(self, recorded, tmp_path):
        """No sidecar: the file's own columns are what replay decodes.
        ``save_columns_npz`` survives for the benchmark child that
        times it, and still writes those arrays (and only arrays: not
        the replay index a replay hangs off the columns)."""
        v2, npz = tmp_path / "t.v2.jsonl", tmp_path / "columns.npz"
        save_trace(recorded, v2)
        in_memory = columns_from_buffer(recorded)
        assert_columns_equal(load_trace_columns(v2, coalesce=False),
                             in_memory)
        trace_index(in_memory)
        save_columns_npz(recorded, npz)
        with np.load(npz) as archive:
            assert not [name for name in archive.files if name[0] == "_"]
            for name in ("starts", "kind", "partner", "size", "group_size",
                         "work"):
                np.testing.assert_array_equal(archive[name],
                                              getattr(in_memory, name))


class TestSniffing:
    def test_empty_file_rejected(self):
        with pytest.raises(SimulationError):
            load_trace(io.StringIO(""))

    def test_unknown_format_rejected(self):
        with pytest.raises(SimulationError):
            load_trace(io.StringIO('{"format": "ap1000-trace-v9"}\n'))
