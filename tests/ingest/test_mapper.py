"""Foreign-event → canonical-trace mapping semantics.

The contract: whatever the mapper emits must replay deadlock-free
under MLSim and pass ``repro check --trace``, because the mapping
encodes the engine's own completion semantics (put-delivery flags,
blocking gets, msg_id-matched send/recv, grouped collectives).
"""

from __future__ import annotations

import pytest

from repro.core.errors import IngestError
from repro.core.flags import flag_global_id
from repro.ingest.events import ForeignEvent, ForeignOp
from repro.ingest.mapper import (
    GET_FLAG_SLOT,
    PUT_FLAG_SLOT,
    ingest_file,
    map_events,
)
from repro.mlsim.params import ap1000_plus_params
from repro.mlsim.simulator import simulate
from repro.trace.events import EventKind
from tests.trace.views import all_events, events_for


def ev(op, rank, t, **kw):
    return ForeignEvent(op=op, rank=rank, timestamp=t, **kw)


def kinds(trace, pe):
    return [e.kind for e in events_for(trace, pe)]


class TestClockNormalization:
    def test_gaps_become_compute(self):
        result = map_events([
            ev(ForeignOp.BARRIER, 0, 0.0),
            ev(ForeignOp.BARRIER, 1, 0.0),
            ev(ForeignOp.BARRIER, 0, 7.5),
            ev(ForeignOp.BARRIER, 1, 7.5),
        ])
        assert result.synthesized_compute == 2
        assert kinds(result.trace, 0) == [
            EventKind.BARRIER, EventKind.COMPUTE, EventKind.BARRIER]
        gap = events_for(result.trace, 0)[1]
        assert gap.work == pytest.approx(7.5)

    def test_time_unit_scales_gaps_and_work(self):
        result = map_events([
            ev(ForeignOp.COMPUTE, 0, 0.0, work=2.0),
            ev(ForeignOp.BARRIER, 0, 5.0),
        ], time_unit=10.0)
        work_events = [e for e in events_for(result.trace, 0)
                       if e.kind is EventKind.COMPUTE]
        # 2.0 units of explicit work, then a 3.0-unit gap (compute
        # occupies 0.0-2.0), both scaled by 10 us/unit.
        assert [e.work for e in work_events] == [
            pytest.approx(20.0), pytest.approx(30.0)]

    def test_late_starting_rank_keeps_its_skew(self):
        result = map_events([
            ev(ForeignOp.BARRIER, 0, 0.0),
            ev(ForeignOp.BARRIER, 1, 4.0),
        ])
        # The origin is the earliest timestamp; rank 1's skew becomes
        # leading compute.
        assert kinds(result.trace, 1) == [
            EventKind.COMPUTE, EventKind.BARRIER]
        assert events_for(result.trace, 1)[0].work == pytest.approx(4.0)

    def test_backwards_clock_rejected(self):
        with pytest.raises(IngestError, match="runs backwards"):
            map_events([
                ev(ForeignOp.BARRIER, 0, 5.0),
                ev(ForeignOp.BARRIER, 0, 1.0),
            ])


class TestPutWaitGet:
    def test_put_targets_peer_delivery_flag(self):
        result = map_events([
            ev(ForeignOp.PUT, 0, 0.0, peer=1, size=64),
            ev(ForeignOp.WAIT, 1, 1.0),
        ])
        put = events_for(result.trace, 0)[0]
        assert put.kind is EventKind.PUT
        assert put.recv_flag == flag_global_id(1, PUT_FLAG_SLOT)

    def test_wait_target_counts_puts_toward_the_rank(self):
        result = map_events([
            ev(ForeignOp.PUT, 0, 0.0, peer=1, size=8),
            ev(ForeignOp.PUT, 2, 0.5, peer=1, size=8),
            ev(ForeignOp.WAIT, 1, 1.0),
        ])
        wait = [e for e in events_for(result.trace, 1)
                if e.kind is EventKind.FLAG_WAIT][0]
        assert wait.flag == flag_global_id(1, PUT_FLAG_SLOT)
        assert wait.target == 2

    def test_wait_with_no_puts_is_harmless(self):
        # target 0 takes the engine's epilog-only path.
        result = map_events([ev(ForeignOp.WAIT, 0, 0.0),
                             ev(ForeignOp.BARRIER, 1, 0.0),
                             ev(ForeignOp.BARRIER, 0, 1.0)])
        wait = events_for(result.trace, 0)[0]
        assert wait.target == 0
        simulate(result.trace, ap1000_plus_params())  # must not park

    def test_get_is_blocking(self):
        result = map_events([
            ev(ForeignOp.GET, 0, 0.0, peer=1, size=128),
            ev(ForeignOp.BARRIER, 1, 0.0),
            ev(ForeignOp.BARRIER, 0, 1.0),
        ])
        get, wait = events_for(result.trace, 0)[:2]
        assert get.kind is EventKind.GET
        assert get.recv_flag == flag_global_id(0, GET_FLAG_SLOT)
        assert wait.kind is EventKind.FLAG_WAIT
        assert (wait.flag, wait.target) == (get.recv_flag, 1)


class TestSendRecv:
    def test_fifo_matching_assigns_shared_msg_ids(self):
        result = map_events([
            ev(ForeignOp.SEND, 0, 0.0, peer=1, size=8),
            ev(ForeignOp.SEND, 0, 1.0, peer=1, size=8),
            ev(ForeignOp.RECV, 1, 2.0, peer=0, size=8),
            ev(ForeignOp.RECV, 1, 3.0, peer=0, size=8),
        ])
        sends = [e.msg_id for e in events_for(result.trace, 0)
                 if e.kind is EventKind.SEND]
        recvs = [e.msg_id for e in events_for(result.trace, 1)
                 if e.kind is EventKind.RECV]
        assert sends == recvs  # non-overtaking, in order

    def test_recv_before_send_still_matches(self):
        result = map_events([
            ev(ForeignOp.RECV, 1, 0.0, peer=0, size=8),
            ev(ForeignOp.SEND, 0, 5.0, peer=1, size=8),
        ])
        (recv,) = [e for e in events_for(result.trace, 1)
                   if e.kind is EventKind.RECV]
        (send,) = [e for e in events_for(result.trace, 0)
                   if e.kind is EventKind.SEND]
        assert recv.msg_id == send.msg_id
        simulate(result.trace, ap1000_plus_params())

    def test_tags_keep_channels_apart(self):
        result = map_events([
            ev(ForeignOp.SEND, 0, 0.0, peer=1, size=8, tag=7),
            ev(ForeignOp.RECV, 1, 1.0, peer=0, size=8, tag=9),
            ev(ForeignOp.SEND, 0, 2.0, peer=1, size=8, tag=9),
            ev(ForeignOp.RECV, 1, 3.0, peer=0, size=8, tag=7),
        ])
        events = {(e.pe, e.msg_id) for e in all_events(result.trace)
                  if e.kind in (EventKind.SEND, EventKind.RECV)}
        # tag 7: send first (id 1); tag 9: recv first (id 2).
        assert events == {(0, 1), (1, 2), (0, 2), (1, 1)}

    def test_unmatched_recv_is_an_ingest_error(self):
        with pytest.raises(IngestError, match="park forever"):
            map_events([ev(ForeignOp.RECV, 1, 0.0, peer=0, size=8)])


class TestCollectives:
    def test_reduce_splits_scalar_and_vector(self):
        result = map_events([
            ev(ForeignOp.REDUCE, 0, 0.0, size=8),
            ev(ForeignOp.REDUCE, 1, 0.0, size=8),
            ev(ForeignOp.REDUCE, 0, 1.0, size=4096),
            ev(ForeignOp.REDUCE, 1, 1.0, size=4096),
        ])
        ops = [e.kind for e in events_for(result.trace, 0)
               if e.kind in (EventKind.GOP, EventKind.VGOP)]
        assert ops == [EventKind.GOP, EventKind.VGOP]

    def test_sequence_mismatch_diagnosed_at_ingest(self):
        with pytest.raises(IngestError, match="collective mismatch"):
            map_events([
                ev(ForeignOp.BARRIER, 0, 0.0),
                ev(ForeignOp.REDUCE, 1, 0.0, size=8),
            ])

    def test_padded_machine_synchronizes_the_rank_subgroup(self):
        result = map_events([
            ev(ForeignOp.BARRIER, 0, 0.0),
            ev(ForeignOp.BARRIER, 1, 0.0),
        ], cells=8)
        assert result.num_cells == 8
        barrier = events_for(result.trace, 0)[0]
        assert barrier.group_size == 2
        assert result.trace.groups.members(barrier.group) == (0, 1)
        # Idle cells 2..7 must not block the barrier.
        simulate(result.trace, ap1000_plus_params())


class TestValidation:
    def test_cells_below_rank_count_rejected(self):
        with pytest.raises(IngestError, match="smaller than"):
            map_events([ev(ForeignOp.BARRIER, 3, 0.0)], cells=2)

    def test_peer_implies_machine_size(self):
        result = map_events([ev(ForeignOp.PUT, 0, 0.0, peer=5, size=8)])
        assert result.num_ranks == 6

    def test_empty_stream_rejected(self):
        with pytest.raises(IngestError, match="no events"):
            map_events([])

    def test_nonpositive_time_unit_rejected(self):
        with pytest.raises(IngestError, match="positive"):
            map_events([ev(ForeignOp.BARRIER, 0, 0.0)], time_unit=0.0)

    def test_negative_work_rejected(self):
        with pytest.raises(IngestError, match="negative compute"):
            map_events([ev(ForeignOp.COMPUTE, 0, 0.0, work=-1.0)])


class TestEndToEnd:
    """The shipped samples replay clean under every mapping knob."""

    @pytest.mark.parametrize("sample", ["ring4.vef", "pingpong.jsonl"])
    def test_samples_replay_deadlock_free(self, sample, examples_dir):
        result = ingest_file(examples_dir / sample)
        sim = simulate(result.trace, ap1000_plus_params())
        assert sim.elapsed_us > 0

    @pytest.mark.parametrize("sample", ["ring4.vef", "pingpong.jsonl"])
    def test_samples_pass_the_checker(self, sample, examples_dir):
        from repro.check.runner import check_trace

        result = ingest_file(examples_dir / sample)
        report = check_trace(result.trace, sample)
        assert report.clean, [d.message for d in report.diagnostics]

    def test_ingest_is_deterministic(self, examples_dir):
        from repro.faults.chaos import trace_digest

        a = ingest_file(examples_dir / "ring4.vef")
        b = ingest_file(examples_dir / "ring4.vef")
        assert trace_digest(a.trace) == trace_digest(b.trace)
