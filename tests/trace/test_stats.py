"""Unit tests for Table 3 statistics extraction."""


from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent
from repro.trace.stats import (
    TABLE3_COLUMNS,
    collect_statistics,
    format_table3_row,
)
from tests.trace.views import record


def _buf(events):
    buf = TraceBuffer(num_pes=2)
    for ev in events:
        record(buf, ev)
    return buf


class TestCollect:
    def test_column_set_matches_paper(self):
        assert TABLE3_COLUMNS == (
            "PE", "SEND", "Gop", "V Gop", "Sync",
            "PUT", "PUTS", "GET", "GETS", "Size of Msg.")

    def test_per_pe_averaging(self):
        buf = _buf([
            TraceEvent(EventKind.PUT, pe=0, size=100),
            TraceEvent(EventKind.PUT, pe=0, size=200),
            TraceEvent(EventKind.BARRIER, pe=0),
            TraceEvent(EventKind.BARRIER, pe=1),
        ])
        stats = collect_statistics(buf)
        assert stats.put_per_pe == 1.0     # 2 puts / 2 PEs
        assert stats.sync_per_pe == 1.0
        assert stats.avg_message_bytes == 150.0

    def test_stride_split_into_puts_gets_columns(self):
        buf = _buf([
            TraceEvent(EventKind.PUT, pe=0, size=8, stride=True),
            TraceEvent(EventKind.PUT, pe=0, size=8),
            TraceEvent(EventKind.GET, pe=1, size=8, stride=True),
        ])
        stats = collect_statistics(buf)
        assert stats.put_per_pe == 0.5
        assert stats.puts_per_pe == 0.5
        assert stats.get_per_pe == 0.0
        assert stats.gets_per_pe == 0.5

    def test_ack_gets_excluded(self):
        """Table 3 counts messages 'without GET for acknowledge'."""
        buf = _buf([
            TraceEvent(EventKind.PUT, pe=0, size=1000),
            TraceEvent(EventKind.GET, pe=0, size=0, is_ack=True),
        ])
        stats = collect_statistics(buf)
        assert stats.get_per_pe == 0.0
        assert stats.avg_message_bytes == 1000.0

    def test_collectives_counted(self):
        buf = _buf([
            TraceEvent(EventKind.GOP, pe=0, size=8),
            TraceEvent(EventKind.VGOP, pe=0, size=800),
            TraceEvent(EventKind.SEND, pe=1, size=64),
        ])
        stats = collect_statistics(buf)
        assert stats.gop_per_pe == 0.5
        assert stats.vgop_per_pe == 0.5
        assert stats.send_per_pe == 0.5

    def test_empty_trace(self):
        stats = collect_statistics(TraceBuffer(num_pes=4))
        assert stats.avg_message_bytes == 0.0
        assert stats.as_row() == (4,) + (0.0,) * 9

    def test_format_row(self):
        buf = _buf([TraceEvent(EventKind.PUT, pe=0, size=64)])
        line = format_table3_row("Demo", collect_statistics(buf))
        assert line.startswith("Demo")
        assert "64.0" in line


class TestRowShape:
    def test_as_row_matches_columns(self):
        stats = collect_statistics(TraceBuffer(num_pes=1))
        assert len(stats.as_row()) == len(TABLE3_COLUMNS)
