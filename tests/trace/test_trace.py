"""Unit tests for trace events, the bounded buffer, groups, and
serialization."""

import io

import pytest

from repro.core.errors import TraceBufferOverflowError
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, GroupTable, TraceEvent
from repro.trace.io import load_trace, save_trace


class TestBuffer:
    def test_sequence_numbers_are_global(self):
        buf = TraceBuffer(num_pes=2)
        a = buf.record(TraceEvent(EventKind.COMPUTE, pe=0, work=1.0))
        b = buf.record(TraceEvent(EventKind.COMPUTE, pe=1, work=1.0))
        assert (a.seq, b.seq) == (0, 1)

    def test_per_pe_lists(self):
        buf = TraceBuffer(num_pes=2)
        buf.record(TraceEvent(EventKind.PUT, pe=0, partner=1, size=8))
        buf.record(TraceEvent(EventKind.BARRIER, pe=1))
        assert len(buf.events_for(0)) == 1
        assert len(buf.events_for(1)) == 1
        assert buf.total_events == 2

    def test_all_events_in_issue_order(self):
        buf = TraceBuffer(num_pes=2)
        for pe in (1, 0, 1, 0):
            buf.record(TraceEvent(EventKind.COMPUTE, pe=pe, work=1.0))
        assert [e.seq for e in buf.all_events()] == [0, 1, 2, 3]

    def test_overflow_like_the_paper(self):
        """'MLSim simulated the first 10 iterations because of trace
        buffer limitations.'"""
        buf = TraceBuffer(num_pes=1, capacity=3)
        for _ in range(3):
            buf.record(TraceEvent(EventKind.COMPUTE, pe=0, work=1.0))
        with pytest.raises(TraceBufferOverflowError):
            buf.record(TraceEvent(EventKind.COMPUTE, pe=0, work=1.0))

    def test_count_by_kind(self):
        buf = TraceBuffer(num_pes=2)
        buf.record(TraceEvent(EventKind.PUT, pe=0))
        buf.record(TraceEvent(EventKind.PUT, pe=1))
        buf.record(TraceEvent(EventKind.GET, pe=0))
        assert buf.count(EventKind.PUT) == 2
        assert buf.count(EventKind.PUT, pe=0) == 1

    def test_coalesce_compute(self):
        buf = TraceBuffer(num_pes=1)
        for work in (1.0, 2.0, 3.0):
            buf.record(TraceEvent(EventKind.COMPUTE, pe=0, work=work))
        buf.record(TraceEvent(EventKind.RTSYS, pe=0, work=1.0))
        buf.record(TraceEvent(EventKind.RTSYS, pe=0, work=1.0))
        buf.record(TraceEvent(EventKind.COMPUTE, pe=0, work=4.0))
        buf.coalesce_compute()
        events = buf.events_for(0)
        assert [e.kind for e in events] == [
            EventKind.COMPUTE, EventKind.RTSYS, EventKind.COMPUTE]
        assert events[0].work == 6.0
        assert events[1].work == 2.0
        assert buf.total_events == 3

    def test_coalesce_does_not_cross_other_events(self):
        buf = TraceBuffer(num_pes=1)
        buf.record(TraceEvent(EventKind.COMPUTE, pe=0, work=1.0))
        buf.record(TraceEvent(EventKind.BARRIER, pe=0))
        buf.record(TraceEvent(EventKind.COMPUTE, pe=0, work=1.0))
        buf.coalesce_compute()
        assert len(buf.events_for(0)) == 3


class TestGroups:
    def test_group_zero_is_world(self):
        table = GroupTable((0, 1, 2))
        assert table.members(0) == (0, 1, 2)
        assert table.size(0) == 3

    def test_interning_is_idempotent(self):
        table = GroupTable((0, 1, 2, 3))
        a = table.intern((1, 3))
        b = table.intern((3, 1))   # order-insensitive
        assert a == b != 0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            GroupTable((0,)).intern(())

    def test_len(self):
        table = GroupTable((0, 1))
        table.intern((0,))
        assert len(table) == 2


class TestSerialization:
    def _sample(self):
        buf = TraceBuffer(num_pes=2)
        assert buf.groups is not None
        buf.groups.intern((0,))
        buf.record(TraceEvent(EventKind.PUT, pe=0, partner=1, size=64,
                              recv_flag=7, stride=True))
        buf.record(TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=7, target=1))
        buf.record(TraceEvent(EventKind.GOP, pe=0, group=0, group_size=2,
                              size=8))
        return buf

    def test_roundtrip(self):
        buf = self._sample()
        stream = io.BytesIO()
        save_trace(buf, stream)
        stream.seek(0)
        loaded = load_trace(stream)
        again = io.BytesIO()
        save_trace(loaded, again)
        assert again.getvalue() == stream.getvalue()
        assert loaded.num_pes == 2
        assert loaded.total_events == buf.total_events
        orig = buf.all_events()
        back = loaded.all_events()
        for a, b in zip(orig, back):
            assert (a.kind, a.pe, a.partner, a.size, a.stride, a.recv_flag,
                    a.flag, a.target) == \
                   (b.kind, b.pe, b.partner, b.size, b.stride, b.recv_flag,
                    b.flag, b.target)

    def test_groups_roundtrip(self):
        buf = self._sample()
        stream = io.BytesIO()
        save_trace(buf, stream)
        stream.seek(0)
        loaded = load_trace(stream)
        assert loaded.groups is not None
        assert len(loaded.groups) == len(buf.groups)
        assert loaded.groups.members(1) == (0,)

    def test_file_roundtrip(self, tmp_path):
        buf = self._sample()
        path = tmp_path / "trace.trc"
        save_trace(buf, path)
        loaded = load_trace(path)
        assert loaded.total_events == buf.total_events
        stream = io.BytesIO()
        save_trace(loaded, stream)
        assert stream.getvalue() == path.read_bytes()

    def test_bad_format_rejected(self):
        from repro.core.errors import SimulationError
        with pytest.raises(SimulationError):
            load_trace(io.StringIO('{"format": "nope"}\n'))
        with pytest.raises(SimulationError):
            load_trace(io.StringIO(""))
