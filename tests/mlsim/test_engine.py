"""Unit tests for the MLSim discrete-event engine on hand-built traces."""

import pytest

from repro.core.errors import SimulationError
from repro.mlsim import put_model as pm
from repro.mlsim.params import ap1000_params, ap1000_plus_params
from repro.trace.events import EventKind, TraceEvent

from .replay import flag_wait_ends, replay as run, trace_of
from tests.trace.views import record


class TestComputeAndRtsys:
    def test_compute_scales_with_factor(self):
        tr = trace_of(1, [TraceEvent(EventKind.COMPUTE, pe=0, work=100.0)])
        res = run(tr, ap1000_plus_params())
        assert res.per_pe[0].execution == pytest.approx(12.5)
        tr2 = trace_of(1, [TraceEvent(EventKind.COMPUTE, pe=0, work=100.0)])
        res2 = run(tr2, ap1000_params())
        assert res2.per_pe[0].execution == pytest.approx(100.0)

    def test_rtsys_bucket(self):
        tr = trace_of(1, [TraceEvent(EventKind.RTSYS, pe=0, work=80.0)])
        res = run(tr)
        assert res.per_pe[0].rtsys == pytest.approx(10.0)
        assert res.per_pe[0].execution == 0.0

    def test_elapsed_is_makespan(self):
        tr = trace_of(2, [
            TraceEvent(EventKind.COMPUTE, pe=0, work=10.0),
            TraceEvent(EventKind.COMPUTE, pe=1, work=100.0),
        ])
        res = run(tr)
        assert res.elapsed_us == pytest.approx(12.5)


class TestPutFlagTiming:
    def _producer_consumer(self, size=1000):
        return trace_of(2, [
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=size,
                       recv_flag=99),
            TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=99, target=1),
        ])

    def test_consumer_waits_for_delivery(self):
        p = ap1000_plus_params()
        res = run(self._producer_consumer(), p)
        tl = pm.put_timeline(p, 1000, 1)
        waiter = res.per_pe[1]
        # The waiter's clock ends at flag time plus the check epilog.
        assert waiter.clock == pytest.approx(
            tl.recv_flag_at + pm.flag_check_cpu_time(p), rel=0.05)
        assert waiter.idle > 0

    def test_receiver_cpu_stolen_in_software_model(self):
        p = ap1000_params()
        tr = trace_of(2, [
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=1000,
                       recv_flag=99),
            TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=99, target=1),
            TraceEvent(EventKind.COMPUTE, pe=1, work=10.0),
        ])
        res = run(tr, p)
        # The interrupt service appears in the receiver's overhead.
        assert res.per_pe[1].overhead > pm.recv_cpu_theft(p, 1000)

    def test_multiple_increments_target_counts(self):
        tr = trace_of(2, [
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=10, recv_flag=5),
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=10, recv_flag=5),
            TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=5, target=2),
        ])
        res = run(tr)
        assert res.messages == 2
        assert res.per_pe[1].clock > 0

    def test_send_flag_counts_local_completion(self):
        tr = trace_of(2, [
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=10, send_flag=3),
            TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=3, target=1),
        ])
        res = run(tr)
        assert res.per_pe[0].clock > 0

    def test_unsatisfiable_wait_is_replay_deadlock(self):
        tr = trace_of(1, [
            TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=1, target=1)])
        with pytest.raises(SimulationError):
            run(tr)

    def test_target_zero_passes_immediately(self):
        tr = trace_of(1, [
            TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=1, target=0)])
        res = run(tr)
        assert res.per_pe[0].idle == 0.0


class TestChannelOrdering:
    def test_ack_get_reply_after_put_delivery(self):
        """The acknowledge idiom: the GET (issued after a big PUT) must
        not complete before the PUT has been delivered."""
        p = ap1000_plus_params()
        size = 100_000
        tr = trace_of(2, [
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=size,
                       recv_flag=50),
            TraceEvent(EventKind.GET, pe=0, partner=1, size=0, is_ack=True,
                       recv_flag=60),
            TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=60, target=1),
            TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=50, target=1),
        ])
        res = run(tr, p, record_timeline=True)
        [put_done] = flag_wait_ends(res, 1)
        [ack_done] = flag_wait_ends(res, 0)
        assert ack_done > put_done - pm.recv_flag_update_time(p, size)

    def test_out_of_order_discovery_not_clamped(self):
        """A reply injected early must not queue behind messages injected
        later in simulated time but processed earlier."""
        p = ap1000_plus_params()
        tr = trace_of(2, [
            # PE1 computes a long time, then puts 1 -> 0.
            TraceEvent(EventKind.COMPUTE, pe=1, work=100000.0),
            TraceEvent(EventKind.PUT, pe=1, partner=0, size=8, recv_flag=70),
            # PE0 immediately GETs from PE1 (reply travels 1 -> 0).
            TraceEvent(EventKind.GET, pe=0, partner=1, size=8, recv_flag=80),
            TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=80, target=1),
        ])
        res = run(tr, p, record_timeline=True)
        [get_done] = flag_wait_ends(res, 0)
        assert get_done < 1000.0   # far earlier than PE1's 12.5 ms compute
        assert res.per_pe[0].idle < 1000.0


class TestSendRecv:
    def test_recv_waits_for_matching_send(self):
        tr = trace_of(2, [
            TraceEvent(EventKind.COMPUTE, pe=0, work=800.0),
            TraceEvent(EventKind.SEND, pe=0, partner=1, size=64, msg_id=7),
            TraceEvent(EventKind.RECV, pe=1, partner=0, size=64, msg_id=7),
        ])
        res = run(tr)
        assert res.per_pe[1].idle > 50.0

    def test_send_blocks_sender(self):
        p = ap1000_params()
        tr = trace_of(2, [
            TraceEvent(EventKind.SEND, pe=0, partner=1, size=10000, msg_id=1),
            TraceEvent(EventKind.RECV, pe=1, partner=0, size=10000, msg_id=1),
        ])
        res = run(tr, p)
        # Blocking SEND: the drain time lands in the sender's overhead.
        assert res.per_pe[0].overhead > pm.dma_drain_time(p, 10000)

    def test_recv_before_send_processed(self):
        tr = trace_of(2, [
            TraceEvent(EventKind.RECV, pe=0, partner=1, size=16, msg_id=4),
            TraceEvent(EventKind.COMPUTE, pe=1, work=10.0),
            TraceEvent(EventKind.SEND, pe=1, partner=0, size=16, msg_id=4),
        ])
        res = run(tr)   # must not deadlock
        assert res.per_pe[0].clock > 0


class TestBarriers:
    def test_skew_becomes_idle(self):
        tr = trace_of(2, [
            TraceEvent(EventKind.COMPUTE, pe=0, work=1000.0),
            TraceEvent(EventKind.BARRIER, pe=0, group=0, group_size=2),
            TraceEvent(EventKind.BARRIER, pe=1, group=0, group_size=2),
        ])
        res = run(tr)
        assert res.per_pe[1].idle > res.per_pe[0].idle
        assert res.per_pe[0].clock == pytest.approx(res.per_pe[1].clock)

    def test_generation_separation(self):
        events = []
        for _rep in range(3):
            for pe in (0, 1):
                events.append(TraceEvent(EventKind.BARRIER, pe=pe,
                                         group=0, group_size=2))
        res = run(trace_of(2, events))
        assert res.per_pe[0].clock > 0

    def test_group_barrier_costs_more_than_snet(self):
        def bar(gid, gsize):
            tr = trace_of(5, [])
            assert tr.groups.intern((0, 1, 2, 3)) == 1
            for pe in range(4):
                record(tr, TraceEvent(EventKind.BARRIER, pe=pe, group=gid,
                                      group_size=gsize))
            return run(tr).elapsed_us

        # Software (comm-register) group barrier vs hardware S-net.
        assert bar(1, 4) > bar(0, 4)


class TestReductions:
    def test_gop_scales_with_group_size(self):
        def gop(n):
            tr = trace_of(n, [
                TraceEvent(EventKind.GOP, pe=pe, group=0, group_size=n,
                           size=8) for pe in range(n)])
            return run(tr).elapsed_us

        assert gop(16) > gop(4) > gop(2)

    def test_vgop_scales_with_vector_size(self):
        def vgop(nbytes):
            tr = trace_of(4, [
                TraceEvent(EventKind.VGOP, pe=pe, group=0, group_size=4,
                           size=nbytes) for pe in range(4)])
            return run(tr).elapsed_us

        assert vgop(100_000) > vgop(1_000)

    def test_vgop_counts_ring_messages(self):
        tr = trace_of(4, [
            TraceEvent(EventKind.VGOP, pe=pe, group=0, group_size=4,
                       size=800) for pe in range(4)])
        res = run(tr)
        assert res.messages == 4 * 3

    def test_vgop_cheaper_on_hardware(self):
        def elapsed(params):
            tr = trace_of(4, [
                TraceEvent(EventKind.VGOP, pe=pe, group=0, group_size=4,
                           size=11200) for pe in range(4)])
            return run(tr, params).elapsed_us

        assert elapsed(ap1000_params()) > elapsed(ap1000_plus_params())


class TestRemoteAccess:
    def test_remote_load_blocks(self):
        tr = trace_of(2, [
            TraceEvent(EventKind.REMOTE_LOAD, pe=0, partner=1, size=8)])
        res = run(tr)
        assert res.per_pe[0].idle > 0
        assert res.messages == 2

    def test_remote_store_nonblocking(self):
        tr = trace_of(2, [
            TraceEvent(EventKind.REMOTE_STORE, pe=0, partner=1, size=8)])
        res = run(tr)
        assert res.per_pe[0].idle == 0.0

    def test_creg_ops_constant_cost(self):
        tr = trace_of(2, [
            TraceEvent(EventKind.CREG_STORE, pe=0, partner=1, size=4),
            TraceEvent(EventKind.CREG_LOAD, pe=0, partner=0, size=4)])
        res = run(tr)
        p = ap1000_plus_params()
        assert res.per_pe[0].overhead == pytest.approx(
            2 * p.creg_access_time)


class TestValidation:
    def test_topology_mismatch_rejected(self):
        from repro.network.topology import TorusTopology
        tr = trace_of(2, [])
        with pytest.raises(SimulationError):
            run(tr, topology=TorusTopology(4, 4))
