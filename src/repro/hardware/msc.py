"""The MSC+ message controller — the heart of the AP1000+ PUT/GET hardware.

The MSC+ interfaces the cell to the T-net and implements, without any
processor involvement (section 4.1):

* the **user-level command interface**: a program issues a PUT/GET by
  writing 8 parameter words to a special address; once the last word
  lands, the MSC+ activates the send DMA — the whole software cost is
  eight store instructions;
* **five queues** (user send, system send, remote access, GET reply,
  remote-load reply) with automatic spill to DRAM on overflow;
* the **send controller** that takes each command as it is issued (or
  pops those a queue holds), gathers (optionally strided) data via send
  DMA, injects the packet, and asks the MC to increment the send flag at
  DMA completion;
* the **receive controller** that parses arriving headers, scatters data
  via receive DMA, invalidates the cached copies of the written range, and
  increments the receive flag — and that *automatically answers GET
  requests* through the reply queue;
* the translation of shared-space physical addresses into remote
  load/store packets (section 4.2).
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.errors import CommunicationError, PageFaultError
from repro.core.state import Stateful
from repro.hardware.cache import WriteThroughCache
from repro.hardware.dma import DMAEngine
from repro.hardware.mc import NO_FLAG, MemoryController
from repro.hardware.queues import COMMAND_WORDS, CommandQueue
from repro.network.packet import Packet, PacketKind, StrideSpec
from repro.network.tnet import TNet

#: Word count of a plain PUT/GET command (8 parameter stores).
PUT_COMMAND_WORDS = COMMAND_WORDS
#: Word count of a stride command: item/count/skip on each side (six
#: parameters) take the place of the two size words, four words more.
STRIDE_COMMAND_WORDS = COMMAND_WORDS + 4


class CommandKind(enum.Enum):
    PUT = "put"
    GET = "get"
    REMOTE_LOAD = "remote_load"
    REMOTE_STORE = "remote_store"


@dataclass(slots=True)
class Command:
    """One entry in an MSC+ send queue.

    Written once by the issuing program and only read afterwards;
    slotted rather than frozen because a frozen dataclass pays an
    ``object.__setattr__`` per field on every construction.
    """

    kind: CommandKind
    dst: int
    raddr: int
    laddr: int
    send_stride: StrideSpec
    recv_stride: StrideSpec
    send_flag: int = NO_FLAG
    recv_flag: int = NO_FLAG
    ack: bool = False
    context: int = 0

    @property
    def words(self) -> int:
        plain = (self.send_stride.count <= 1 and self.recv_stride.count <= 1)
        return PUT_COMMAND_WORDS if plain else STRIDE_COMMAND_WORDS


@dataclass
class MSCStats(Stateful):
    puts_sent: int = 0
    gets_sent: int = 0
    get_replies_sent: int = 0
    sends_sent: int = 0
    puts_received: int = 0
    get_requests_received: int = 0
    get_replies_received: int = 0
    sends_received: int = 0
    remote_loads: int = 0
    remote_stores: int = 0
    faults_pulled: int = 0


class MSCPlus(Stateful):
    """Message controller of one cell."""

    _wiring = frozenset({"mc", "tnet", "cache", "ring", "on_issue"})
    _lazy = {"_load_replies": list}
    #: The cell's receive ring buffer (a :class:`~repro.machine.
    #: ringbuffer.RingBuffer`, set by the machine), where SEND packets
    #: are deposited; None: a SEND arriving here is an error.
    ring: Any = None
    #: Called as ``on_issue(cell)`` while an issued command counts as
    #: queued (the machine points it at its observer's occupancy
    #: sample); None: no call.
    on_issue: Callable[[int], None] | None = None

    def __init__(self, cell_id: int, mc: MemoryController, tnet: TNet,
                 cache: WriteThroughCache | None = None) -> None:
        self.cell_id = cell_id
        self.mc = mc
        self.tnet = tnet
        self.cache = cache
        self.user_send_queue = CommandQueue("user-send", cell=cell_id)
        self.system_send_queue = CommandQueue("system-send", cell=cell_id)
        self.remote_access_queue = CommandQueue("remote-access",
                                                cell=cell_id)
        self.get_reply_queue = CommandQueue("get-reply", cell=cell_id)
        self.remote_load_reply_queue = CommandQueue("remote-load-reply",
                                                    cell=cell_id)
        self.send_dma = DMAEngine("send")
        self.recv_dma = DMAEngine("recv")
        self.stats = MSCStats()
        #: Implicit per-cell acknowledge counter for remote stores.
        self.remote_store_acks = 0
        #: Remote-load replies awaiting pickup by the stalled processor
        #: (a list from the first one on).
        self._load_replies: list[Packet] | None = None

    def all_queues(self) -> tuple[CommandQueue, ...]:
        """The five hardware queues, in section 4.1 order."""
        return (self.user_send_queue, self.system_send_queue,
                self.remote_access_queue, self.get_reply_queue,
                self.remote_load_reply_queue)

    def queued_words(self) -> int:
        """Current occupancy (queue RAM + DRAM spill) across all queues."""
        return sum(q.words_in_queue + q.words_spilled
                   for q in self.all_queues())

    # ------------------------------------------------------------------
    # Command issue (user writes 8 parameter words; the queue is the
    # special address window)
    # ------------------------------------------------------------------

    def issue(self, command: Command, *, system: bool = False) -> None:
        """Queue a PUT/GET command at user (or system) level, for
        :meth:`pump_send` to send."""
        kind, words = command.kind, command.words
        if kind is CommandKind.REMOTE_LOAD or kind is CommandKind.REMOTE_STORE:
            self.remote_access_queue.push(command, words)
        elif system:
            self.system_send_queue.push(command, words)
        else:
            self.user_send_queue.push(command, words)

    def send(self, command: Command) -> None:
        """Issue a command and send it at once.

        The MSC+ activates the send DMA the moment the last parameter
        word lands (section 4.1), so a command passes through its queue
        (:meth:`CommandQueue.pass_through`: counted pushed and popped,
        seen by ``on_issue`` while it counts as queued) and leaves in
        this call.  Behind older commands (a restored queue) it waits,
        and the send controller drains them in order.
        """
        kind = command.kind
        queue = (self.remote_access_queue
                 if kind is CommandKind.REMOTE_LOAD
                 or kind is CommandKind.REMOTE_STORE
                 else self.user_send_queue)
        if queue.pass_through(command, command.words, self.on_issue):
            self._send(command)
        else:
            self.pump_send()

    def exchange_run(self, peer: MSCPlus, size: int, put_src: np.ndarray,
                     put_dst: np.ndarray, get_src: np.ndarray,
                     get_dst: np.ndarray, acks: int,
                     flags: list[tuple[int, int]]) -> int:
        """The hardware side of a run of plain ``size``-byte PUTs from
        here to ``peer`` (``put_src`` here to ``put_dst`` there), GETs
        from it (``get_src`` there to ``get_dst`` here) and ``acks``
        acknowledging GETs, on a perfect wire with nothing queued: what
        :meth:`send`, :meth:`deliver` and :meth:`answer` do per command,
        counted for the run.  Addresses are physical (the MMUs charge
        their lookups apart); the ranges are in DRAM, and no range one
        side writes overlaps another range the run touches on that
        side.  ``flags`` are ``(physical address, increments)`` of this
        cell's flag words the replies count on.  Returns the packets the
        run put on the wire."""
        puts, gets = len(put_src), len(get_src)
        requests = gets + acks
        self.user_send_queue.pass_through_run(puts + requests)
        peer.get_reply_queue.pass_through_run(requests)
        ours, theirs = self.stats, peer.stats
        ours.puts_sent += puts
        ours.gets_sent += requests
        ours.get_replies_received += requests
        theirs.puts_received += puts
        theirs.get_requests_received += requests
        theirs.get_replies_sent += requests
        self.send_dma.account_run(size, puts)
        peer.recv_dma.account_run(size, puts)
        peer.send_dma.account_run(size, gets)
        self.recv_dma.account_run(size, gets)
        here, there = self.mc.memory, peer.mc.memory
        put_items = here.gather_items(put_src, size)
        get_items = there.gather_items(get_src, size)
        there.scatter_items(put_dst, size, put_items)
        here.scatter_items(get_dst, size, get_items)
        if peer.cache is not None:
            peer.cache.invalidate_items(put_dst, size)
        if self.cache is not None:
            self.cache.invalidate_items(get_dst, size)
        for paddr, times in flags:
            self.mc.increment_flag_run(paddr, times)
        packets = puts + 2 * requests
        self.tnet.admit_run(packets)
        return packets

    # ------------------------------------------------------------------
    # Send controller
    # ------------------------------------------------------------------

    def pump_send(self) -> int:
        """Process every queued send-side command.  Returns #packets sent.

        GET replies are sent from :meth:`pump_replies`.
        """
        sent = 0
        # Remote access first (the processor is stalled on remote
        # loads), then system, then user.
        for queue in (self.remote_access_queue, self.system_send_queue,
                      self.user_send_queue):
            while queue.pushed != queue.popped:
                self._send(queue.pop())
                sent += 1
        return sent

    def _send(self, command: Command) -> None:
        """Put one command on the wire."""
        kind = command.kind
        if kind is CommandKind.PUT:
            self._send_put(command)
        elif kind is CommandKind.GET:
            self._send_get(command)
        elif kind is CommandKind.REMOTE_STORE:
            self._send_remote_store(command)
        elif kind is CommandKind.REMOTE_LOAD:
            self._send_remote_load(command)
        else:  # pragma: no cover - enum is exhaustive
            raise CommunicationError(f"unknown command kind {kind}")

    def _gather_payload(self, command: Command) -> bytes:
        paddr = self.mc.mmu.translate_range(
            command.laddr, command.send_stride.extent_bytes, write=False)
        return self.send_dma.gather(self.mc.memory, paddr, command.send_stride)

    # Packet(kind, src, dst, payload_bytes, remote_addr, local_addr,
    #        send_flag, recv_flag, data, send_stride, recv_stride, context)

    def _send_put(self, command: Command) -> None:
        data = self._gather_payload(command)
        recv_stride = command.recv_stride
        packet = Packet(
            PacketKind.PUT_STRIDE
            if recv_stride.count > 1 or command.send_stride.count > 1
            else PacketKind.PUT,
            self.cell_id, command.dst, len(data), command.raddr, 0, 0,
            command.recv_flag, data, None, recv_stride, command.context)
        # Send-side completion precedes the injection here and below: a
        # perfect wire has the packet at its destination, receive flag
        # updated, when ``inject`` returns.
        self.stats.puts_sent += 1
        # Send DMA complete: combined flag update on the sending side.
        if command.send_flag != NO_FLAG:
            self.mc.increment_flag(command.send_flag)
        self.tnet.inject(packet)

    def _send_get(self, command: Command) -> None:
        packet = Packet(
            PacketKind.GET_REQUEST, self.cell_id, command.dst, 0,
            command.raddr, command.laddr, 0, command.recv_flag, None,
            command.send_stride,    # remote-side gather layout
            command.recv_stride,    # local scatter layout
            command.context)
        self.stats.gets_sent += 1
        # The GET request itself leaves: sending-side flag updates now.
        if command.send_flag != NO_FLAG:
            self.mc.increment_flag(command.send_flag)
        self.tnet.inject(packet)

    def send_message(self, dst: int, data: bytes, *, context: int = 0,
                     send_flag: int = NO_FLAG) -> Packet:
        """SEND (two-sided model): same hardware as PUT, but the packet is
        addressed to the destination's ring buffer rather than a specific
        remote address (section 4.3).  Returns the injected packet so the
        probe layer can record its serial for SEND/RECEIVE matching."""
        packet = Packet(
            kind=PacketKind.SEND, src=self.cell_id, dst=dst,
            payload_bytes=len(data), data=data, context=context,
        )
        self.stats.sends_sent += 1
        if send_flag != NO_FLAG:
            self.mc.increment_flag(send_flag)
        self.tnet.inject(packet)
        return packet

    def _send_remote_store(self, command: Command) -> None:
        data = self._gather_payload(command)
        self.stats.remote_stores += 1
        self.tnet.inject(Packet(
            kind=PacketKind.REMOTE_STORE, src=self.cell_id, dst=command.dst,
            payload_bytes=len(data), data=data, remote_addr=command.raddr,
        ))

    def _send_remote_load(self, command: Command) -> None:
        self.stats.remote_loads += 1
        self.tnet.inject(Packet(
            kind=PacketKind.REMOTE_LOAD, src=self.cell_id, dst=command.dst,
            payload_bytes=0, remote_addr=command.raddr,
            local_addr=command.laddr,
            send_stride=command.send_stride,
        ))

    # ------------------------------------------------------------------
    # Receive controller
    # ------------------------------------------------------------------

    def deliver(self, packet: Packet) -> None:
        """Handle one packet arriving from the T-net."""
        if packet.dst != self.cell_id:
            raise CommunicationError(
                f"packet for cell {packet.dst} delivered to cell "
                f"{self.cell_id}")
        kind = packet.kind
        reply = kind is PacketKind.GET_REPLY
        if reply or kind is PacketKind.PUT or kind is PacketKind.PUT_STRIDE:
            # Data lands (none in the reply to an acknowledging GET),
            # then the receive DMA's combined flag update.
            if packet.payload_bytes or not reply:
                assert packet.data is not None
                self._scatter_with_invalidate(
                    packet.remote_addr,
                    packet.recv_stride
                    or StrideSpec.contiguous(packet.payload_bytes),
                    packet.data)
            if reply:
                self.stats.get_replies_received += 1
            else:
                self.stats.puts_received += 1
            if packet.recv_flag != NO_FLAG:
                self.mc.increment_flag(packet.recv_flag)
        elif kind is PacketKind.GET_REQUEST:
            self.stats.get_requests_received += 1
            self.get_reply_queue.push(packet, PUT_COMMAND_WORDS)
        elif kind is PacketKind.SEND:
            self._receive_send(packet)
        elif kind is PacketKind.REMOTE_STORE:
            self._receive_remote_store(packet)
        elif kind is PacketKind.REMOTE_STORE_ACK:
            self.remote_store_acks += 1
        elif kind is PacketKind.REMOTE_LOAD:
            self.remote_load_reply_queue.push(packet, PUT_COMMAND_WORDS)
        elif kind is PacketKind.REMOTE_LOAD_REPLY:
            if self._load_replies is None:
                self._load_replies = []
            self._load_replies.append(packet)
        else:
            raise CommunicationError(f"cell {self.cell_id}: unroutable {kind}")

    def _scatter_with_invalidate(self, laddr: int, stride: StrideSpec,
                                 data: bytes) -> None:
        mc = self.mc
        extent = stride.extent_bytes
        try:
            paddr = mc.mmu.translate_range(laddr, extent, write=True)
        except PageFaultError:
            # Page fault in a remote cell during transfer: interrupt the OS
            # and pull the remaining message from the network (section 4.1).
            self.stats.faults_pulled += 1
            raise
        self.recv_dma.scatter(mc.memory, paddr, stride, data)
        # Cache invalidation happens at message reception, in hardware.
        if self.cache is not None:
            self.cache.invalidate_range(paddr, extent)

    def _receive_send(self, packet: Packet) -> None:
        self.stats.sends_received += 1
        if self.ring is None:
            raise CommunicationError(
                f"cell {self.cell_id} received SEND but has no ring buffer")
        self.ring.deposit(packet)

    def _receive_remote_store(self, packet: Packet) -> None:
        assert packet.data is not None
        self._scatter_with_invalidate(
            packet.remote_addr, StrideSpec.contiguous(len(packet.data)),
            packet.data)
        # Completion of a remote store is acknowledged automatically.
        self.tnet.inject(Packet(
            kind=PacketKind.REMOTE_STORE_ACK, src=self.cell_id,
            dst=packet.src, payload_bytes=0))

    # ------------------------------------------------------------------
    # Reply controller (GET requests answered without the processor)
    # ------------------------------------------------------------------

    def answer(self, request: Packet) -> None:
        """Receive a GET request or remote load and answer it at once.

        The reply controller serves a request without the processor
        (section 4.1), so where nothing waits ahead of it the request
        passes through its reply queue and the reply leaves in this
        call; :meth:`deliver` queues it instead, for a wire that holds
        frames and pumps replies in rounds.
        """
        if request.kind is PacketKind.GET_REQUEST:
            self.stats.get_requests_received += 1
            if self.get_reply_queue.pass_through(request):
                self._reply_get(request)
                return
        elif self.remote_load_reply_queue.pass_through(request):
            self._reply_remote_load(request)
            return
        self.pump_replies()

    def pump_replies(self) -> int:
        """Serve queued GET requests and remote loads; returns #replies.

        Remote-load replies precede GET replies (the requesting processor
        is stalled on a remote load).
        """
        sent = 0
        queue = self.remote_load_reply_queue
        while queue.pushed != queue.popped:
            self._reply_remote_load(queue.pop())
            sent += 1
        queue = self.get_reply_queue
        while queue.pushed != queue.popped:
            self._reply_get(queue.pop())
            sent += 1
        return sent

    def _reply_get(self, request: Packet) -> None:
        if request.remote_addr == 0:
            # Acknowledge idiom: GET to address 0 copies nothing; the reply
            # merely increments the requester's flag (section 4.1).
            data = b""
            stride = StrideSpec.contiguous(0)
        else:
            gather = request.send_stride or StrideSpec.contiguous(0)
            paddr = self.mc.mmu.translate_range(
                request.remote_addr, gather.extent_bytes, write=False)
            data = self.send_dma.gather(self.mc.memory, paddr, gather)
            stride = request.recv_stride or StrideSpec.contiguous(len(data))
        self.stats.get_replies_sent += 1
        self.tnet.inject(Packet(
            PacketKind.GET_REPLY, self.cell_id, request.src, len(data),
            request.local_addr,     # requester's landing address
            0, 0, request.recv_flag, data, None, stride, request.context))

    def _reply_remote_load(self, request: Packet) -> None:
        size = request.send_stride.total_bytes if request.send_stride else 4
        paddr = self.mc.mmu.translate_range(
            request.remote_addr, size, write=False)
        data = self.mc.memory.read(paddr, size)
        self.tnet.inject(Packet(
            kind=PacketKind.REMOTE_LOAD_REPLY, src=self.cell_id,
            dst=request.src, payload_bytes=len(data), data=data,
            remote_addr=request.local_addr))

    def take_load_reply(self) -> Packet | None:
        """Pop a pending remote-load reply (the stalled processor resumes)."""
        if self._load_replies:
            return self._load_replies.pop(0)
        return None
