"""Unit tests for the MSC+ message controller: the PUT/GET hardware path.

These tests drive two :class:`HardwareCell`\\ s directly (no machine
scheduler): issue commands, pump queues, deliver packets by hand, and
check the combined flag updates, stride DMA, the GET-reply automaton, the
acknowledge idiom, and page-fault handling.
"""

import pytest

from repro.core.errors import CommunicationError, PageFaultError
from repro.hardware.cell import HardwareCell
from repro.hardware.msc import Command, CommandKind
from repro.machine.ringbuffer import RingBuffer
from repro.network.packet import PacketKind, StrideSpec
from repro.network.tnet import TNet
from repro.network.topology import TorusTopology

FLAG_A = 64      # flag addresses in both cells' memories
FLAG_B = 68
DATA = 4096      # data area base


@pytest.fixture
def rig():
    tnet = TNet(TorusTopology(2, 1))
    a = HardwareCell.build(0, tnet, memory_bytes=1 << 20)
    b = HardwareCell.build(1, tnet, memory_bytes=1 << 20)
    return tnet, a, b


def pump(tnet, cells):
    """Move everything to quiescence (what Machine.pump does)."""
    for _ in range(8):
        for cell in cells:
            cell.msc.pump_send()
            cell.msc.pump_replies()
        for packet in tnet.drain_all():
            cells[packet.dst].msc.deliver(packet)
    assert tnet.injected_count == tnet.delivered_count


def put_cmd(dst, raddr, laddr, size, **kw):
    return Command(kind=CommandKind.PUT, dst=dst, raddr=raddr, laddr=laddr,
                   send_stride=StrideSpec.contiguous(size),
                   recv_stride=StrideSpec.contiguous(size), **kw)


class TestPut:
    def test_data_lands_at_remote_address(self, rig):
        tnet, a, b = rig
        a.memory.write(DATA, b"payload!")
        a.msc.issue(put_cmd(1, DATA + 64, DATA, 8))
        pump(tnet, (a, b))
        assert b.memory.read(DATA + 64, 8) == b"payload!"

    def test_combined_flag_update_both_sides(self, rig):
        tnet, a, b = rig
        a.msc.issue(put_cmd(1, DATA, DATA, 8,
                            send_flag=FLAG_A, recv_flag=FLAG_B))
        pump(tnet, (a, b))
        assert a.mc.read_flag(FLAG_A) == 1   # send DMA complete
        assert b.mc.read_flag(FLAG_B) == 1   # receive DMA complete

    def test_no_flag_requested(self, rig):
        tnet, a, b = rig
        a.msc.issue(put_cmd(1, DATA, DATA, 8))
        pump(tnet, (a, b))
        assert a.mc.flag_increments == 0
        assert b.mc.flag_increments == 0

    def test_stride_gather_and_scatter(self, rig):
        tnet, a, b = rig
        a.memory.write(DATA, bytes(range(64)))
        cmd = Command(
            kind=CommandKind.PUT, dst=1, raddr=DATA, laddr=DATA,
            send_stride=StrideSpec(item_size=4, count=4, skip=16),
            recv_stride=StrideSpec(item_size=8, count=2, skip=32))
        a.msc.issue(cmd)
        pump(tnet, (a, b))
        gathered = bytes(range(0, 4)) + bytes(range(16, 20)) + \
            bytes(range(32, 36)) + bytes(range(48, 52))
        assert b.memory.read(DATA, 8) == gathered[:8]
        assert b.memory.read(DATA + 32, 8) == gathered[8:]

    def test_receive_invalidates_cache(self, rig):
        tnet, a, b = rig
        b.cache.read(DATA, 64)              # lines become resident
        assert b.cache.contains(DATA)
        a.msc.issue(put_cmd(1, DATA, DATA, 64))
        pump(tnet, (a, b))
        assert not b.cache.contains(DATA)   # invalidated at reception

    def test_stride_command_occupies_more_words(self):
        plain = put_cmd(1, 0, 0, 8)
        strided = Command(
            kind=CommandKind.PUT, dst=1, raddr=0, laddr=0,
            send_stride=StrideSpec(item_size=4, count=4, skip=8),
            recv_stride=StrideSpec.contiguous(16))
        assert strided.words > plain.words


class TestGet:
    def test_remote_read(self, rig):
        tnet, a, b = rig
        b.memory.write(DATA, b"remote-data-here")
        a.msc.issue(Command(
            kind=CommandKind.GET, dst=1, raddr=DATA, laddr=DATA + 256,
            send_stride=StrideSpec.contiguous(16),
            recv_stride=StrideSpec.contiguous(16),
            recv_flag=FLAG_A))
        pump(tnet, (a, b))
        assert a.memory.read(DATA + 256, 16) == b"remote-data-here"
        assert a.mc.read_flag(FLAG_A) == 1

    def test_get_reply_served_without_processor(self, rig):
        tnet, a, b = rig
        a.msc.issue(Command(
            kind=CommandKind.GET, dst=1, raddr=DATA, laddr=DATA,
            send_stride=StrideSpec.contiguous(4),
            recv_stride=StrideSpec.contiguous(4)))
        pump(tnet, (a, b))
        assert b.msc.stats.get_requests_received == 1
        assert b.msc.stats.get_replies_sent == 1
        assert a.msc.stats.get_replies_received == 1

    def test_acknowledge_idiom_get_to_address_zero(self, rig):
        tnet, a, b = rig
        a.msc.issue(Command(
            kind=CommandKind.GET, dst=1, raddr=0, laddr=0,
            send_stride=StrideSpec.contiguous(0),
            recv_stride=StrideSpec.contiguous(0),
            recv_flag=FLAG_A))
        pump(tnet, (a, b))
        # No data copied, but the flag proves the round trip completed.
        assert a.mc.read_flag(FLAG_A) == 1
        assert a.msc.recv_dma.bytes_moved == 0

    def test_ack_after_put_proves_put_delivery(self, rig):
        """In-order channels: the ack GET's reply cannot overtake the PUT."""
        tnet, a, b = rig
        a.memory.write(DATA, b"12345678")
        a.msc.issue(put_cmd(1, DATA, DATA, 8))
        a.msc.issue(Command(
            kind=CommandKind.GET, dst=1, raddr=0, laddr=0,
            send_stride=StrideSpec.contiguous(0),
            recv_stride=StrideSpec.contiguous(0),
            recv_flag=FLAG_A))
        # Pump sends, then deliver in network order, asserting the PUT is
        # processed before the GET request.
        a.msc.pump_send()
        order = [p.kind for p in tnet.drain_all()]
        assert order == [PacketKind.PUT, PacketKind.GET_REQUEST]


class TestSendAtIssue:
    def test_command_leaves_in_the_call_that_issues_it(self, rig):
        tnet, a, b = rig
        a.memory.write(DATA, b"at once!")
        a.msc.send(put_cmd(1, DATA + 64, DATA, 8, send_flag=FLAG_A))
        assert a.mc.read_flag(FLAG_A) == 1
        assert [p.kind for p in tnet.drain_all()] == [PacketKind.PUT]
        queue = a.msc.user_send_queue
        assert (queue.pushed, queue.popped) == (1, 1)
        assert queue.high_water_words == 8 and not queue

    def test_command_behind_a_queued_one_leaves_after_it(self, rig):
        tnet, a, b = rig
        a.msc.issue(put_cmd(1, DATA, DATA, 8))
        a.msc.send(Command(
            kind=CommandKind.GET, dst=1, raddr=0, laddr=0,
            send_stride=StrideSpec.contiguous(0),
            recv_stride=StrideSpec.contiguous(0), recv_flag=FLAG_A))
        assert [p.kind for p in tnet.drain_all()] == [
            PacketKind.PUT, PacketKind.GET_REQUEST]
        assert not a.msc.user_send_queue

    def test_request_is_answered_where_it_lands(self, rig):
        tnet, a, b = rig
        b.memory.write(DATA, b"answered")
        a.msc.send(Command(
            kind=CommandKind.GET, dst=1, raddr=DATA, laddr=DATA + 8,
            send_stride=StrideSpec.contiguous(8),
            recv_stride=StrideSpec.contiguous(8), recv_flag=FLAG_A))
        (request,) = tnet.drain_all()
        b.msc.answer(request)
        assert b.msc.stats.get_requests_received == 1
        assert b.msc.get_reply_queue.popped == 1
        assert not b.msc.get_reply_queue
        (reply,) = tnet.drain_all()
        a.msc.deliver(reply)
        assert a.memory.read(DATA + 8, 8) == b"answered"
        assert a.mc.read_flag(FLAG_A) == 1


class TestSendModel:
    def test_send_goes_to_ring_sink(self, rig):
        tnet, a, b = rig
        b.msc.ring = RingBuffer()
        a.msc.send_message(1, b"two-sided")
        pump(tnet, (a, b))
        assert b.msc.ring.deposits == 1
        assert b.msc.ring.search(src=0).data == b"two-sided"

    def test_send_without_sink_fails(self, rig):
        tnet, a, b = rig
        b.msc.ring = None
        a.msc.send_message(1, b"x")
        with pytest.raises(CommunicationError):
            pump(tnet, (a, b))


class TestRemoteAccess:
    def test_remote_store_and_ack(self, rig):
        tnet, a, b = rig
        a.memory.write(DATA, b"word")
        a.msc.issue(Command(
            kind=CommandKind.REMOTE_STORE, dst=1, raddr=DATA + 512,
            laddr=DATA, send_stride=StrideSpec.contiguous(4),
            recv_stride=StrideSpec.contiguous(4)))
        pump(tnet, (a, b))
        assert b.memory.read(DATA + 512, 4) == b"word"
        assert a.msc.remote_store_acks == 1

    def test_remote_load_reply(self, rig):
        tnet, a, b = rig
        b.memory.write(DATA, b"8bytes!!")
        a.msc.issue(Command(
            kind=CommandKind.REMOTE_LOAD, dst=1, raddr=DATA, laddr=0,
            send_stride=StrideSpec.contiguous(8),
            recv_stride=StrideSpec.contiguous(8)))
        pump(tnet, (a, b))
        reply = a.msc.take_load_reply()
        assert reply is not None and reply.data == b"8bytes!!"
        assert a.msc.take_load_reply() is None


class TestProtection:
    def test_put_to_unmapped_remote_page_faults_and_is_pulled(self):
        tnet = TNet(TorusTopology(2, 1))
        a = HardwareCell.build(0, tnet, memory_bytes=1 << 20)
        b = HardwareCell.build(1, tnet, memory_bytes=1 << 20,
                               identity_map=False)   # nothing mapped
        a.memory.write(DATA, b"x" * 16)
        a.msc.issue(put_cmd(1, DATA, DATA, 16))
        a.msc.pump_send()
        packet = tnet.drain_all()[0]
        with pytest.raises(PageFaultError):
            b.msc.deliver(packet)
        assert b.msc.stats.faults_pulled == 1

    def test_misdelivered_packet_rejected(self, rig):
        tnet, a, b = rig
        a.memory.write(DATA, b"12345678")
        a.msc.issue(put_cmd(1, DATA, DATA, 8))
        a.msc.pump_send()
        packet = tnet.drain_all()[0]
        with pytest.raises(CommunicationError):
            a.msc.deliver(packet)   # wrong cell


class TestQueuePriorities:
    def test_remote_access_served_before_user_sends(self, rig):
        tnet, a, b = rig
        a.memory.write(DATA, b"abcdefgh")
        a.msc.issue(put_cmd(1, DATA, DATA, 8))
        a.msc.issue(Command(
            kind=CommandKind.REMOTE_LOAD, dst=1, raddr=DATA, laddr=0,
            send_stride=StrideSpec.contiguous(4),
            recv_stride=StrideSpec.contiguous(4)))
        a.msc.pump_send()
        kinds = [p.kind for p in tnet.drain_all()]
        assert kinds[0] == PacketKind.REMOTE_LOAD

    def test_system_queue_separate_from_user(self, rig):
        tnet, a, b = rig
        a.memory.write(DATA, b"abcdefgh")
        a.msc.issue(put_cmd(1, DATA, DATA, 8), system=True)
        assert len(a.msc.system_send_queue) == 1
        assert len(a.msc.user_send_queue) == 0
