"""Fine-grained MLSim engine tests: GET decomposition, CPU-theft
accounting, reply-queue priority semantics, and the processor-scaling
helper."""

import pytest

from repro.mlsim import put_model as pm
from repro.mlsim.params import (
    ap1000_params,
    ap1000_plus_params,
    scale_processor,
)
from repro.trace.events import EventKind, TraceEvent

from .replay import flag_wait_ends, replay, trace_of


def run(events, num_pes=2, params=None):
    return replay(trace_of(num_pes, events), params, record_timeline=True)


class TestGetDecomposition:
    def test_get_round_trip_time(self):
        """GET completion = request wire + target service + reply wire
        + receive service, computed from the model components."""
        p = ap1000_plus_params()
        size = 8192
        result = run([
            TraceEvent(EventKind.GET, pe=0, partner=1, size=size,
                       recv_flag=33),
            TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=33, target=1),
        ], params=p)
        [done] = flag_wait_ends(result, 0)
        issue = pm.get_send_cpu_time(p, size) + pm.send_dma_setup_time(p)
        expected = (issue
                    + pm.network_time(p, 0, 1)            # request
                    + pm.get_reply_service_time(p, size)  # target MSC+
                    + pm.network_time(p, size, 1)         # reply
                    + pm.recv_flag_update_time(p, size))
        assert done == pytest.approx(expected, rel=1e-6)

    def test_get_reply_size_dominates(self):
        """The request carries no payload: only the reply scales."""
        p = ap1000_plus_params()

        def done(size):
            result = run([
                TraceEvent(EventKind.GET, pe=0, partner=1, size=size,
                           recv_flag=33),
                TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=33, target=1),
            ], params=p)
            return flag_wait_ends(result, 0)[0]

        delta = done(20_000) - done(10_000)
        assert delta == pytest.approx(10_000 * p.put_msg_time, rel=0.01)

    def test_software_target_pays_for_the_reply(self):
        """On the AP1000 the GET target's CPU serves the reply."""
        p = ap1000_params()
        result = run([
            TraceEvent(EventKind.GET, pe=0, partner=1, size=1000,
                       recv_flag=33),
            TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=33, target=1),
            TraceEvent(EventKind.COMPUTE, pe=1, work=10.0),
        ], params=p)
        assert result.per_pe[1].overhead >= pm.get_reply_cpu_theft(p, 1000)


class TestTheftAccounting:
    def test_theft_applied_exactly_once(self):
        p = ap1000_params()
        result = run([
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=1000),
            TraceEvent(EventKind.COMPUTE, pe=1, work=10.0),
            TraceEvent(EventKind.COMPUTE, pe=1, work=10.0),
        ], params=p)
        theft = pm.recv_cpu_theft(p, 1000)
        assert result.per_pe[1].overhead == pytest.approx(theft)

    def test_theft_zero_on_hardware(self):
        result = run([
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=1000),
            TraceEvent(EventKind.COMPUTE, pe=1, work=10.0),
        ])
        assert result.per_pe[1].overhead == 0.0

    def test_unconsumed_theft_does_not_crash(self):
        """A receiver with no further events simply never charges the
        stolen time (it has no next activity to delay)."""
        p = ap1000_params()
        result = run([
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=1000),
        ], params=p)
        assert result.per_pe[1].clock == 0.0


class TestScaleProcessor:
    def test_identity_scaling(self):
        p = ap1000_params()
        assert scale_processor(p, 1.0, memory_factor=1.0) == p

    def test_composition(self):
        p = ap1000_params()
        once = scale_processor(scale_processor(p, 0.5, memory_factor=0.5),
                               0.25, memory_factor=0.75)
        direct = scale_processor(p, 0.125, memory_factor=0.375)
        assert once.put_prolog_time == pytest.approx(direct.put_prolog_time)
        assert once.recv_msg_flush_time == pytest.approx(
            direct.recv_msg_flush_time)
        assert once.computation_factor == direct.computation_factor

    def test_rename(self):
        p = scale_processor(ap1000_params(), 0.5, name="half")
        assert p.name == "half"

    def test_memory_floor_default(self):
        """Without an explicit memory factor, per-byte costs scale by at
        most the memory-speedup floor."""
        p = scale_processor(ap1000_params(), 0.01)
        base = ap1000_params()
        assert p.recv_msg_flush_time == pytest.approx(
            base.recv_msg_flush_time * 0.375)
        assert p.put_prolog_time == pytest.approx(
            base.put_prolog_time * 0.01)


class TestReplyPriorities:
    def test_remote_load_replies_precede_get_replies(self):
        """Hardware semantics (section 4.1): a stalled processor's remote
        load outranks GET replies in the MSC+ queues."""
        from repro.hardware.cell import HardwareCell
        from repro.hardware.msc import Command, CommandKind
        from repro.network.packet import PacketKind, StrideSpec
        from repro.network.tnet import TNet
        from repro.network.topology import TorusTopology

        tnet = TNet(TorusTopology(2, 1))
        a = HardwareCell.build(0, tnet, memory_bytes=1 << 20)
        b = HardwareCell.build(1, tnet, memory_bytes=1 << 20)
        # Two GET requests and one remote load arrive at b.
        for _ in range(2):
            a.msc.issue(Command(
                kind=CommandKind.GET, dst=1, raddr=4096, laddr=4096,
                send_stride=StrideSpec.contiguous(8),
                recv_stride=StrideSpec.contiguous(8)))
        a.msc.issue(Command(
            kind=CommandKind.REMOTE_LOAD, dst=1, raddr=4096, laddr=0,
            send_stride=StrideSpec.contiguous(8),
            recv_stride=StrideSpec.contiguous(8)))
        a.msc.pump_send()
        for packet in tnet.drain_all():
            b.msc.deliver(packet)
        b.msc.pump_replies()
        kinds = [p.kind for p in tnet.drain_all()]
        assert kinds[0] is PacketKind.REMOTE_LOAD_REPLY
        assert kinds.count(PacketKind.GET_REPLY) == 2
