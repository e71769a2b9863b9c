"""Unit tests for the optional link-contention extension."""

import inspect

import pytest

from repro.mlsim.engine_soa import replay_columns
from repro.network.topology import TorusTopology
from repro.trace.events import EventKind, TraceEvent

from . import replay as driver


def replay(events, num_pes, contention, topology=None):
    return driver.replay(driver.trace_of(num_pes, events), None, topology,
                         link_contention=contention)


class TestLinkContention:
    def test_disabled_by_default(self):
        option = inspect.signature(replay_columns).parameters[
            "link_contention"]
        assert option.default is False

    def test_two_senders_share_a_link(self):
        """On a 4x1 ring, 0->2 and 1->2 both use the link 1->2: with
        contention the second flag lands later."""
        topo = TorusTopology(4, 1)
        events = [
            TraceEvent(EventKind.PUT, pe=0, partner=2, size=50_000,
                       recv_flag=11),
            TraceEvent(EventKind.PUT, pe=1, partner=2, size=50_000,
                       recv_flag=12),
            TraceEvent(EventKind.FLAG_WAIT, pe=2, flag=11, target=1),
            TraceEvent(EventKind.FLAG_WAIT, pe=2, flag=12, target=1),
        ]
        free = replay(events, 4, False, topo)
        busy = replay(events, 4, True, topo)
        assert busy.per_pe[2].clock > free.per_pe[2].clock

    def test_disjoint_routes_unaffected(self):
        """0->1 and 2->3 share no link: contention changes nothing."""
        topo = TorusTopology(4, 1)
        events = [
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=50_000,
                       recv_flag=11),
            TraceEvent(EventKind.PUT, pe=2, partner=3, size=50_000,
                       recv_flag=12),
            TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=11, target=1),
            TraceEvent(EventKind.FLAG_WAIT, pe=3, flag=12, target=1),
        ]
        free = replay(events, 4, False, topo)
        busy = replay(events, 4, True, topo)
        for pe in range(4):
            assert busy.per_pe[pe].clock == pytest.approx(
                free.per_pe[pe].clock)

    def test_same_channel_fully_serializes(self):
        """Back-to-back messages on one channel: the base model's FIFO
        clamp only orders *arrivals* (lenient), while the contention
        model makes the second message wait for the link — adding one
        full wire time and no more."""
        wire = 10_000 * 0.05   # put_msg_time
        events = [
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=10_000,
                       recv_flag=11),
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=10_000,
                       recv_flag=11),
            TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=11, target=2),
        ]
        free = replay(events, 2, False)
        busy = replay(events, 2, True)
        added = busy.per_pe[1].clock - free.per_pe[1].clock
        assert 0.9 * wire < added < 1.2 * wire

    def test_never_faster(self):
        events = []
        for pe in range(4):
            events.append(TraceEvent(EventKind.PUT, pe=pe,
                                     partner=(pe + 2) % 4, size=5_000,
                                     recv_flag=20 + pe))
        for pe in range(4):
            events.append(TraceEvent(EventKind.FLAG_WAIT, pe=(pe + 2) % 4,
                                     flag=20 + pe, target=1))
        free = replay(events, 4, False)
        busy = replay(events, 4, True)
        assert busy.elapsed_us >= free.elapsed_us * 0.999
