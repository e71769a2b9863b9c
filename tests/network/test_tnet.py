"""Unit tests for the T-net functional transport."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CommunicationError
from repro.faults.injector import FaultyTNet
from repro.faults.plan import FaultPlan
from repro.network.packet import Packet, PacketKind
from repro.network.tnet import TNet
from repro.network.topology import TorusTopology


def _pkt(src, dst, size=8, kind=PacketKind.PUT):
    return Packet(kind=kind, src=src, dst=dst, payload_bytes=size,
                  data=bytes(size))


@pytest.fixture
def net():
    return TNet(TorusTopology(4, 2))


class TestInjection:
    def test_inject_and_deliver(self, net):
        p = _pkt(0, 1)
        net.inject(p)
        assert net.pending(0, 1) == 1
        assert net.deliver_next(0, 1) is p
        assert net.pending(0, 1) == 0

    def test_rejects_out_of_range_endpoints(self, net):
        with pytest.raises(CommunicationError):
            net.inject(_pkt(0, 99))

    def test_deliver_from_empty_channel_fails(self, net):
        with pytest.raises(CommunicationError):
            net.deliver_next(0, 1)

    def test_counters(self, net):
        net.inject(_pkt(0, 1))
        net.inject(_pkt(0, 2))
        assert net.injected_count == 2
        net.drain_all()
        assert net.delivered_count == 2


class TestOrdering:
    def test_per_pair_fifo(self, net):
        first = _pkt(0, 1)
        second = _pkt(0, 1)
        net.inject(first)
        net.inject(second)
        assert net.deliver_next(0, 1) is first
        assert net.deliver_next(0, 1) is second

    def test_drain_to_keeps_per_source_order(self, net):
        a1, a2 = _pkt(0, 3), _pkt(0, 3)
        b1 = _pkt(1, 3)
        net.inject(a1)
        net.inject(b1)
        net.inject(a2)
        out = net.drain_to(3)
        assert out.index(a1) < out.index(a2)
        assert len(out) == 3

    def test_acknowledge_idiom_depends_on_fifo(self, net):
        """A GET request injected after a PUT on the same channel must be
        delivered after it — the section 4.1 acknowledge guarantee."""
        put = _pkt(0, 1)
        ack = Packet(kind=PacketKind.GET_REQUEST, src=0, dst=1,
                     payload_bytes=0, remote_addr=0)
        net.inject(put)
        net.inject(ack)
        out = net.drain_to(1)
        assert out == [put, ack]
        assert out[1].is_acknowledge_idiom()


class TestDraining:
    def test_drain_to_only_takes_matching_destination(self, net):
        net.inject(_pkt(0, 1))
        net.inject(_pkt(0, 2))
        assert len(net.drain_to(1)) == 1
        assert net.in_flight == 1

    def test_drain_all_empties(self, net):
        for dst in (1, 2, 3):
            net.inject(_pkt(0, dst))
        assert len(net.drain_all()) == 3
        assert net.in_flight == 0

    def test_pending_for(self, net):
        net.inject(_pkt(0, 2))
        net.inject(_pkt(1, 2))
        assert net.pending_for(2) == 2


def test_transfer_time_matches_link_bandwidth(net):
    # 25 MB/s -> 0.04 us per byte.
    assert net.transfer_time_us(25) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Oracle: the scan of every channel that drain_all replaced
# ----------------------------------------------------------------------

CELLS = 8


def scan_every_channel(net):
    """drain_all as a visit of every channel the network ever opened."""
    ready = []
    for queue in net._channels.values():
        ready.extend(queue)
        queue.clear()
    ready.sort(key=lambda p: p.serial)
    net.delivered_count += len(ready)
    return ready


def ident(packets):
    """What tells packets apart across two networks (payload_bytes is
    the test's tag)."""
    return [(p.serial, p.src, p.dst, p.payload_bytes) for p in packets]


wire_ops = st.lists(st.tuples(
    st.sampled_from(["inject", "inject", "inject", "deliver_next",
                     "drain_to", "drain_all"]),
    st.integers(0, CELLS - 1), st.integers(0, CELLS - 1)), max_size=120)


def drive(ops, make_net, send, tick=lambda net: None):
    """Run ``ops`` on a network drained by drain_all and on a twin
    drained by the scan; every read-out must agree."""
    net, reference = make_net(), make_net()
    for tag, (op, src, dst) in enumerate(ops):
        if op == "inject":
            send(net, _pkt(src, dst, size=tag))
            send(reference, _pkt(src, dst, size=tag))
        elif op == "deliver_next":
            if net.pending(src, dst):
                assert ident([net.deliver_next(src, dst)]) == \
                    ident([reference.deliver_next(src, dst)])
        elif op == "drain_to":
            assert ident(net.drain_to(dst)) == ident(reference.drain_to(dst))
        else:
            tick(reference)
            out = net.drain_all()
            assert ident(out) == ident(scan_every_channel(reference))
            assert [p.serial for p in out] == sorted(p.serial for p in out)
        assert net.in_flight == reference.in_flight
        assert net.injected_count - net.delivered_count == net.in_flight
        assert net.pending_for(dst) == reference.pending_for(dst)
        assert net.pending_from(src) == reference.pending_from(src)
    return net, reference


class TestDrainAllOracle:
    @given(ops=wire_ops)
    @settings(max_examples=150, deadline=None)
    def test_perfect_wire(self, ops):
        drive(ops, lambda: TNet(TorusTopology(4, 2)), TNet.inject)

    @given(ops=wire_ops, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150, deadline=None)
    def test_faulty_wire_releases_delayed_frames_mid_sequence(self, ops,
                                                              seed):
        plan = FaultPlan(name="drain", seed=seed, dup_rate=0.2,
                         delay_rate=0.4, delay_max_rounds=3)
        net, reference = drive(
            ops,
            lambda: FaultyTNet(TorusTopology(4, 2), plan,
                               random.Random(seed)),
            FaultyTNet.transmit, tick=FaultyTNet._tick_delayed)
        assert net.schedule == reference.schedule
        # Held frames age out within delay_max_rounds further drains.
        for _ in range(plan.delay_max_rounds):
            reference._tick_delayed()
            assert ident(net.drain_all()) == \
                ident(scan_every_channel(reference))
        assert net.in_flight == 0
        assert net.injected_count == net.delivered_count


# ----------------------------------------------------------------------
# Oracle: the endpoint check on every packet that the check at channel
# creation replaced
# ----------------------------------------------------------------------


class TestEndpointCheckOracle:
    @given(flows=st.lists(
        st.tuples(st.integers(-2, CELLS + 2), st.integers(-2, CELLS + 2)),
        max_size=60))
    def test_rejects_what_a_check_per_packet_rejects(self, flows):
        net = TNet(TorusTopology(4, 2))
        accepted = []
        for tag, (src, dst) in enumerate(flows):
            packet = _pkt(src, dst, size=tag)
            if 0 <= src < CELLS and 0 <= dst < CELLS:
                net.inject(packet)
                accepted.append(packet)
                assert packet.serial == len(accepted) - 1
            else:
                with pytest.raises(CommunicationError, match="outside"):
                    net.inject(packet)
                # A refused packet leaves no trace: no serial drawn, no
                # channel opened, nothing counted.
                assert packet.serial == -1
                assert (src, dst) not in net._channels
            assert net.injected_count == net.in_flight == len(accepted)
            assert net._next_serial == len(accepted)
        assert net.drain_all() == accepted
