"""Sharded multiprocess execution: cells partitioned over workers.

The functional machine is itself a PGAS system here: every cell's DRAM
lives in a ``multiprocessing.shared_memory`` segment owned by its shard,
so an intra-shard PUT/GET is today's fast path and a cross-shard PUT/GET
is a bounds-checked memcpy into the destination segment plus an address
translation — mirroring the AP1000+'s MC-assisted remote DMA.  Control
traffic that must be applied by the *owning* worker (flag increments,
ring-buffer deposits, barrier arrivals, reduction contributions, comm-
register stores, receive-side counters) flows through per-pair
shared-memory mailboxes (:class:`~repro.machine.shardmem.ShmRing`).

Byte-identity with the serial batched engine is the contract.  Workers
execute the real hardware model (bytes move, flags count) but do **not**
decide the canonical trace order; instead each cell logs an *oplog* —
its trace events plus the scheduling-relevant effects of every
operation — and after all workers finish, the parent **replays** the
oplogs through an exact mirror of the serial batched scheduler
(:meth:`repro.machine.machine.Machine._run_batched`).  The replay
assigns global event sequence numbers, canonical message serials, group
ids and phase ids, so traces, ``AppStatistics`` and memory digests are
byte-identical to a serial run at every shard count.  Each worker also
hands back the ``state()`` of the cells it owns, which the parent loads
whole (:mod:`repro.core.state`).  See ``docs/sharding.md`` for the
protocol walk-through.

Limitations: runs :func:`ineligible` names (fault plans, armed
checkpoint gates, used or restored machines, no ``fork`` start method)
take a serial loop and say so in ``machine.engine``; ``recv`` needs an
explicit ``src=`` (wildcard receives are timing-dependent across
shards).
"""

from __future__ import annotations

import functools
import heapq
import inspect
import os
import pickle
import time
import traceback
from collections import deque
from collections.abc import Callable
from typing import Any

import multiprocessing as mp
import numpy as np

from repro.core.errors import (
    CommunicationError,
    DeadlockError,
)
from repro.core.flags import MAX_FLAGS_PER_PE, Flag, flag_area_end
from repro.hardware.mc import NO_FLAG
from repro.hardware.msc import Command, CommandKind
from repro.machine.machine import (
    Machine,
    _align,
    _BarrierState,
    _combine_values,
    run_wake_rounds,
)
from repro.machine.program import CellContext, Group
from repro.machine.shardmem import DEFAULT_RING_BYTES, SegmentPool, ShmRing
from repro.network.packet import Packet, PacketKind, StrideSpec
from repro.trace.events import EventKind

#: Ring window = 16-byte header + data area.
_RING_HEADER = 16


def partition(num_cells: int, shards: int) -> list[list[int]]:
    """Balanced contiguous blocks of cells, one per worker; the first
    ``n % s`` shards get one extra cell."""
    base, extra = divmod(num_cells, shards)
    plan: list[list[int]] = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        plan.append(list(range(start, start + size)))
        start += size
    return plan


# ----------------------------------------------------------------------
# Worker-side shard state (mailboxes, oplogs, cross-shard collectives)
# ----------------------------------------------------------------------


class _WorkerAbort(Exception):
    """Parent told this worker to stop (abort/finish mid-run)."""


class _ShardState:
    """Everything one worker process needs beyond the machine itself."""

    def __init__(self, machine: Any, shard_id: int,
                 plan: list[list[int]], shard_of: list[int],
                 mailbox: Any, ring_bytes: int, conn: Any) -> None:
        self.machine = machine
        self.shard_id = shard_id
        self.plan = plan
        self.shard_of = shard_of
        self.nshards = len(plan)
        self.local = set(plan[shard_id])
        self.conn = conn
        window = _RING_HEADER + ring_bytes
        buf = mailbox.buf
        self.rings_out: dict[int, ShmRing] = {}
        self.rings_in: dict[int, ShmRing] = {}
        for peer in range(self.nshards):
            if peer == shard_id:
                continue
            off = (shard_id * self.nshards + peer) * window
            self.rings_out[peer] = ShmRing(
                buf[off:off + window], ring_bytes)
            off = (peer * self.nshards + shard_id) * window
            self.rings_in[peer] = ShmRing(
                buf[off:off + window], ring_bytes)
        self.seq_out = [0] * self.nshards
        self.seq_in = [0] * self.nshards
        self.sent = [0] * self.nshards
        self.recv = [0] * self.nshards
        self.oplog: dict[int, list[tuple]] = {pe: [] for pe in self.local}
        self.generators: dict[int, Any] = {}
        # Cross-shard barrier state: owner side counts arrivals; every
        # member shard spins on the release generation of its own
        # machine's barrier state for the group.
        self.owner_arrived: dict[tuple, set[int]] = {}
        self.owner_bar_gen: dict[tuple, int] = {}
        # Cross-shard reductions (same owner pattern, with values).
        self.owner_slots: dict[tuple, dict[int, Any]] = {}
        self.owner_ops: dict[tuple, str] = {}
        self.red_gen: dict[tuple, int] = {}
        self.red_results: dict[tuple, Any] = {}
        self.red_fetch: dict[tuple, int] = {}

    # -- oplog ---------------------------------------------------------

    def log(self, pe: int, item: tuple) -> None:
        self.oplog[pe].append(item)

    # -- frame transport -----------------------------------------------

    def push(self, dst_shard: int, kind: str, *args: Any) -> None:
        """Ship one control frame to ``dst_shard`` (back-pressured)."""
        record = pickle.dumps(
            (self.seq_out[dst_shard], kind) + args, protocol=-1)
        self.seq_out[dst_shard] += 1
        ring = self.rings_out[dst_shard]
        while not ring.try_push(record):
            # The peer's ring is full: keep our own inbound draining so
            # a cycle of full rings cannot wedge the fleet.
            if not self.drain():
                if not self._service_conn("busy"):
                    raise _WorkerAbort
                time.sleep(0.0002)
        self.sent[dst_shard] += 1

    def drain(self) -> int:
        """Apply every inbound frame; returns the number applied."""
        applied = 0
        for src in range(self.nshards):
            if src == self.shard_id:
                continue
            ring = self.rings_in[src]
            while True:
                record = ring.pop()
                if record is None:
                    break
                frame = pickle.loads(record)
                if frame[0] != self.seq_in[src]:
                    raise CommunicationError(
                        f"shard {self.shard_id}: frame from shard {src} "
                        f"out of order (got {frame[0]}, expected "
                        f"{self.seq_in[src]})")
                self.seq_in[src] += 1
                self._apply(frame[1], frame[2:])
                self.recv[src] += 1
                applied += 1
        return applied

    # -- inbound frame application (runs on the owning worker) ---------

    def _apply(self, kind: str, args: tuple) -> None:
        m = self.machine
        if kind == "put":
            dst, raddr, stride, nbytes, recv_flag = args
            cell = m.hw_cells[dst]
            paddr = cell.mc.translate(raddr, stride.extent_bytes,
                                      write=True)
            _account_dma(cell.msc.recv_dma, nbytes)
            if cell.msc.cache is not None:
                cell.msc.cache.invalidate_range(paddr, stride.extent_bytes)
            cell.msc.stats.puts_received += 1
            cell.mc.increment_flag(recv_flag)
            m.wake(dst)
        elif kind == "get":
            dst, nbytes = args
            msc = m.hw_cells[dst].msc
            msc.stats.get_requests_received += 1
            msc.get_reply_queue.push(None, 8)
            msc.get_reply_queue.pop()
            _account_dma(msc.send_dma, nbytes)
            msc.stats.get_replies_sent += 1
            m.wake(dst)
        elif kind == "snd":
            dst, src_pe, context, payload, serial = args
            packet = Packet(kind=PacketKind.SEND, src=src_pe, dst=dst,
                            payload_bytes=len(payload), data=payload,
                            context=context, serial=serial)
            msc = m.hw_cells[dst].msc
            msc.stats.sends_received += 1
            msc.ring.deposit(packet)
            m.wake(dst)
        elif kind == "rst":
            dst, raddr, nbytes = args
            cell = m.hw_cells[dst]
            paddr = cell.mc.translate(raddr, nbytes, write=True)
            _account_dma(cell.msc.recv_dma, nbytes)
            if cell.msc.cache is not None:
                cell.msc.cache.invalidate_range(paddr, nbytes)
            m.wake(dst)
        elif kind == "rld":
            (dst,) = args
            msc = m.hw_cells[dst].msc
            msc.remote_load_reply_queue.push(None, 8)
            msc.remote_load_reply_queue.pop()
            m.wake(dst)
        elif kind == "creg":
            dst, index, value = args
            m.hw_cells[dst].mc.registers.store(index, value)
            m.wake(dst)
        elif kind == "arr":
            members, pe = args
            self.owner_arrive(members, pe)
        elif kind == "rel":
            members, gen = args
            self.apply_release(members, gen)
        elif kind == "ctb":
            members, gen, pe, value, op = args
            self.owner_contribute(members, gen, pe, value, op)
        elif kind == "res":
            members, gen, value = args
            self.apply_result(members, gen, value)
        else:  # pragma: no cover - vocabulary is closed
            raise CommunicationError(f"unknown shard frame {kind!r}")

    # -- cross-shard barrier (owner = shard of the lowest member) ------

    def shards_of(self, members: tuple[int, ...]) -> list[int]:
        return sorted({self.shard_of[m] for m in members})

    def group_local(self, members: tuple[int, ...]) -> bool:
        return all(self.shard_of[m] == self.shard_id for m in members)

    def barrier_arrive_cross(self, members: tuple[int, ...],
                             pe: int) -> None:
        owner = self.shard_of[min(members)]
        if owner == self.shard_id:
            self.owner_arrive(members, pe)
        else:
            self.push(owner, "arr", members, pe)

    def owner_arrive(self, members: tuple[int, ...], pe: int) -> None:
        arrived = self.owner_arrived.setdefault(members, set())
        if pe in arrived:
            raise CommunicationError(
                f"cell {pe} arrived twice at barrier of group {members}")
        arrived.add(pe)
        if len(arrived) < len(members):
            return
        arrived.clear()
        gen = self.owner_bar_gen.get(members, 0) + 1
        self.owner_bar_gen[members] = gen
        for shard in self.shards_of(members):
            if shard == self.shard_id:
                self.apply_release(members, gen)
            else:
                self.push(shard, "rel", members, gen)

    def apply_release(self, members: tuple[int, ...], gen: int) -> None:
        # Every local member arrived before the release, so the group
        # is interned here and its barrier state exists.
        m = self.machine
        m._barriers[m.trace.groups.intern(members)].generation = gen
        m.note_progress()
        self.machine.wake_group(
            tuple(m for m in members if self.shard_of[m] == self.shard_id))

    # -- cross-shard reductions ----------------------------------------

    def reduce_cross(self, members: tuple[int, ...], pe: int,
                     value: Any, op: str):
        """Generator: one member's part of a cross-shard reduction."""
        if pe not in members:
            raise CommunicationError(
                f"cell {pe} reducing with group {members} it does not "
                "belong to")
        gen = self.red_gen.get((members, pe), 0)
        self.red_gen[(members, pe)] = gen + 1
        owner = self.shard_of[min(members)]
        if owner == self.shard_id:
            self.owner_contribute(members, gen, pe, value, op)
        else:
            self.push(owner, "ctb", members, gen, pe, value, op)
        key = (members, gen)
        while key not in self.red_results:
            yield
        self.machine.note_progress()
        result = self.red_results[key]
        self.red_fetch[key] = self.red_fetch.get(key, 0) + 1
        nlocal = sum(1 for m in members
                     if self.shard_of[m] == self.shard_id)
        if self.red_fetch[key] >= nlocal:
            del self.red_results[key]
            del self.red_fetch[key]
        return result

    def owner_contribute(self, members: tuple[int, ...], gen: int,
                         pe: int, value: Any, op: str) -> None:
        key = (members, gen)
        slot = self.owner_slots.setdefault(key, {})
        if pe in slot:
            raise CommunicationError(
                f"cell {pe} contributed twice to reduction {gen} of "
                f"group {members}")
        slot[pe] = value
        self.owner_ops.setdefault(key, op)
        if len(slot) < len(members):
            return
        contributions = [slot[m] for m in members]
        result = functools.reduce(
            lambda a, b: _combine_values(self.owner_ops[key], a, b),
            contributions)
        del self.owner_slots[key]
        del self.owner_ops[key]
        for shard in self.shards_of(members):
            if shard == self.shard_id:
                self.apply_result(members, gen, result)
            else:
                self.push(shard, "res", members, gen, result)

    def apply_result(self, members: tuple[int, ...], gen: int,
                     value: Any) -> None:
        self.red_results[(members, gen)] = value
        self.machine.note_progress()
        self.machine.wake_group(
            tuple(m for m in members if self.shard_of[m] == self.shard_id))

    # -- cross-shard PUT/GET emulation (runs on the issuing worker) ----

    def inject_parity(self, packet: Packet) -> None:
        """Account one emulated packet crossing as the serial T-net
        does (endpoint check, serial stamp, inject+deliver counters,
        observer hook); the delivery itself is the caller's emulation."""
        self.machine.tnet.admit(packet)

    def emulate_put(self, ctx: "_ShardCellContext",
                    command: Command) -> None:
        msc = ctx.hw.msc
        msc.user_send_queue.push(command, command.words)
        msc.user_send_queue.pop()
        data = msc._gather_payload(command)
        stride = (command.recv_stride.count > 1
                  or command.send_stride.count > 1)
        self.inject_parity(Packet(
            kind=PacketKind.PUT_STRIDE if stride else PacketKind.PUT,
            src=ctx.pe, dst=command.dst, payload_bytes=len(data),
            remote_addr=command.raddr, recv_flag=command.recv_flag,
            recv_stride=command.recv_stride, context=command.context))
        msc.stats.puts_sent += 1
        msc.mc.increment_flag(command.send_flag)
        # PGAS fast path: scatter straight into the destination shard's
        # shared segment; receive-side bookkeeping ships as a frame.
        dcell = self.machine.hw_cells[command.dst]
        paddr = dcell.mc.translate(
            command.raddr, command.recv_stride.extent_bytes, write=True)
        dcell.memory.scatter(paddr, command.recv_stride, data)
        self.push(self.shard_of[command.dst], "put", command.dst,
                  command.raddr, command.recv_stride, len(data),
                  command.recv_flag)

    def emulate_get(self, ctx: "_ShardCellContext",
                    command: Command) -> None:
        msc = ctx.hw.msc
        msc.user_send_queue.push(command, command.words)
        msc.user_send_queue.pop()
        self.inject_parity(Packet(
            kind=PacketKind.GET_REQUEST, src=ctx.pe, dst=command.dst,
            payload_bytes=0, remote_addr=command.raddr,
            local_addr=command.laddr, recv_flag=command.recv_flag,
            send_stride=command.send_stride,
            recv_stride=command.recv_stride, context=command.context))
        msc.stats.gets_sent += 1
        msc.mc.increment_flag(command.send_flag)
        if command.raddr == 0:
            data = b""   # acknowledge idiom: reply carries no payload
        else:
            dcell = self.machine.hw_cells[command.dst]
            paddr = dcell.mc.translate(
                command.raddr, command.send_stride.extent_bytes,
                write=False)
            data = dcell.memory.gather(paddr, command.send_stride)
        self.inject_parity(Packet(
            kind=PacketKind.GET_REPLY, src=command.dst, dst=ctx.pe,
            payload_bytes=len(data), remote_addr=command.laddr,
            recv_flag=command.recv_flag,
            recv_stride=command.recv_stride))
        if data:
            msc._scatter_with_invalidate(
                command.laddr, command.recv_stride, data)
        msc.stats.get_replies_received += 1
        msc.mc.increment_flag(command.recv_flag)
        self.push(self.shard_of[command.dst], "get", command.dst,
                  len(data))

    # -- idle / parent-connection protocol -----------------------------

    def _report(self) -> str:
        return self.machine._deadlock_report(self.generators)

    def _service_conn(self, state: str) -> bool:
        """Answer parent control messages; False means stop running.

        ``state`` names what a probe reply should claim about this
        worker; the parent only trusts quiescence claims ("idle"/"done")
        whose pairwise frame counters match across the fleet.
        """
        while self.conn.poll():
            msg = self.conn.recv()
            if msg[0] == "probe":
                self.conn.send(("probe-reply", msg[1], state,
                                list(self.sent), list(self.recv)))
            elif msg[0] == "abort":
                return False
            else:  # pragma: no cover - parent protocol is closed
                raise CommunicationError(
                    f"unexpected parent message {msg[0]!r}")
        return True

    def idle_wait(self) -> bool:
        """Block until inbound frames arrive (True) or the parent stops
        the run (False)."""
        announced = False
        delay = 0.0
        while True:
            if self.drain():
                if announced:
                    self.conn.send(("busy",))
                return True
            if not self._service_conn("idle"):
                return False
            if os.getppid() == 1:  # parent died; don't linger as orphan
                raise _WorkerAbort
            if not announced:
                self.conn.send(("idle", list(self.sent),
                                list(self.recv), self._report()))
                announced = True
            time.sleep(delay)
            delay = min(0.002, delay + 0.0005)


def _account_dma(dma: Any, nbytes: int) -> None:
    """Mirror the destination-side DMA accounting of a shipped frame."""
    if nbytes:
        dma._account(nbytes)


# ----------------------------------------------------------------------
# Worker-side cell context: real hardware effects + oplog
# ----------------------------------------------------------------------


class _ShardCellContext(CellContext):
    """The worker-side back end of :class:`CellContext`.

    Local operations run the unmodified hardware path; cross-shard
    operations are emulated against the destination's shared segment.
    Either way every operation appends oplog items that let the parent
    replay the exact serial schedule (see module docstring).  Only the
    back-end seam is overridden: the front end (arguments, commands,
    events, waits) is the base class's.
    """

    def __init__(self, machine: "Machine", pe: int,
                 sh: _ShardState) -> None:
        self._sh = sh
        super().__init__(machine, pe)
        self._record = self._log_row

    # The front end's rows are logged here and recorded only at replay,
    # where the parent assigns the canonical global sequence numbers.  The
    # waits the replay must re-block on are functions of the row.
    def _log_row(self, kind: EventKind, pe: int, partner: int = -1,
                size: int = 0, stride: bool = False, send_flag: int = 0,
                recv_flag: int = 0, is_ack: bool = False, msg_id: int = 0,
                flag: int = 0, target: int = 0, group: int = 0,
                group_size: int = 0, work: float = 0.0,
                ranges: tuple | None = None) -> int:
        log = self._sh.oplog[pe]
        log.append(("ev", (kind, pe, 0, partner, size, stride, send_flag,
                           recv_flag, is_ack, msg_id, flag, target, group,
                           group_size, work, *(ranges or ()))))
        if kind is EventKind.FLAG_WAIT:
            slot = Flag((flag - 1) % MAX_FLAGS_PER_PE, pe)
            log.append(("wf", slot.addr, target))
        elif kind is EventKind.BARRIER:
            log.append(("bar", self.machine.trace.groups.members(group)))
        elif kind is EventKind.GOP or kind is EventKind.VGOP:
            log.append(("red", self.machine.trace.groups.members(group)))
        return 0

    def _issue(self, command: Command) -> None:
        sh = self._sh
        pe = self.pe
        incs = []
        if command.kind is CommandKind.GET:
            # Both flags of a GET live on the requesting cell.
            if command.send_flag != NO_FLAG:
                incs.append((pe, command.send_flag))
            if command.recv_flag != NO_FLAG:
                incs.append((pe, command.recv_flag))
            ninject = 2     # request + reply
        else:
            if command.send_flag != NO_FLAG:
                incs.append((pe, command.send_flag))
            if command.recv_flag != NO_FLAG:
                incs.append((command.dst, command.recv_flag))
            ninject = 1
        sh.log(pe, ("op", tuple(incs), (pe, command.dst), ninject))
        if sh.shard_of[command.dst] == sh.shard_id:
            super()._issue(command)
        elif command.kind is CommandKind.GET:
            sh.emulate_get(self, command)
        else:
            sh.emulate_put(self, command)

    def _post(self, dst: int, payload: bytes, context: int) -> Packet:
        sh = self._sh
        sh.log(self.pe, ("snd", dst, context))
        if sh.shard_of[dst] == sh.shard_id:
            return super()._post(dst, payload, context)
        packet = Packet(kind=PacketKind.SEND, src=self.pe, dst=dst,
                        payload_bytes=len(payload), data=payload,
                        context=context)
        sh.inject_parity(packet)
        self.hw.msc.stats.sends_sent += 1
        sh.push(sh.shard_of[dst], "snd", dst, self.pe, context,
                payload, packet.serial)
        return packet

    def recv(self, src: int | None = None, context: int | None = None,
             in_place: bool = False):
        if src is None:
            raise CommunicationError(
                "the sharded engine requires recv(src=...): wildcard "
                "receives are timing-dependent across shards (run with "
                "shards=1 for wildcard matching)")
        self._sh.log(self.pe, ("wr", src, context))
        return super().recv(src, context, in_place)

    def flag_clear(self, flag) -> None:
        self._sh.log(self.pe, ("fc", flag.addr))
        super().flag_clear(flag)

    def make_group(self, members) -> Group:
        group = super().make_group(members)
        self._sh.log(self.pe, ("grp", group.members))
        return group

    def _creg_store(self, dst: int, index: int, value: int) -> None:
        sh = self._sh
        sh.log(self.pe, ("cs", dst, index))
        if sh.shard_of[dst] == sh.shard_id:
            super()._creg_store(dst, index, value)
        else:
            sh.push(sh.shard_of[dst], "creg", dst, index, value)

    def _creg_try_load(self, index: int) -> int | None:
        value = super()._creg_try_load(index)
        if value is not None:
            # Logged when the load completes: a blocked cell logs nothing
            # else in between, so the item still follows the CREG_LOAD
            # event directly, which is where the replay must block.
            self._sh.log(self.pe, ("cl", index))
        return value


class _WorkerMachine(Machine):
    """The inherited machine, re-classed inside a worker process.

    The entry points whose target may live on another shard are
    overridden (distributed shared memory, collectives of groups that
    span shards); everything else stays local or is emulated by
    :class:`_ShardCellContext`.
    """

    _shard: _ShardState

    def barrier_arrive(self, group: Group, pe: int) -> int:
        sh = self._shard
        if sh.group_local(group.members):
            return super().barrier_arrive(group, pe)
        if pe not in group:
            raise CommunicationError(
                f"cell {pe} synchronizing with group {group.gid} it does "
                "not belong to")
        state = self._barriers.get(group.gid)
        if state is None:
            state = self._barriers[group.gid] = _BarrierState(group.members)
        generation = state.generation
        sh.barrier_arrive_cross(group.members, pe)
        return generation

    def reduce(self, group: Group, pe: int, value: Any, op: str):
        sh = self._shard
        if sh.group_local(group.members):
            return super().reduce(group, pe, value, op)
        return sh.reduce_cross(group.members, pe, value, op)

    def remote_store(self, src: int, dst: int, remote_addr: int,
                     data: bytes) -> None:
        sh = self._shard
        sh.log(src, ("op", (), (src, dst), 2))   # STORE + ACK packets
        if sh.shard_of[dst] == sh.shard_id:
            return super().remote_store(src, dst, remote_addr, data)
        scratch = self.alloc_scratch(src, data)
        command = Command(
            kind=CommandKind.REMOTE_STORE, dst=dst, raddr=remote_addr,
            laddr=scratch.addr,
            send_stride=StrideSpec.contiguous(len(data)),
            recv_stride=StrideSpec.contiguous(len(data)))
        msc = self.hw_cells[src].msc
        msc.remote_access_queue.push(command, command.words)
        msc.remote_access_queue.pop()
        payload = msc._gather_payload(command)
        sh.inject_parity(Packet(
            kind=PacketKind.REMOTE_STORE, src=src, dst=dst,
            payload_bytes=len(payload), remote_addr=remote_addr))
        msc.stats.remote_stores += 1
        dcell = self.hw_cells[dst]
        paddr = dcell.mc.translate(remote_addr, len(payload), write=True)
        dcell.memory.scatter(
            paddr, StrideSpec.contiguous(len(payload)), payload)
        sh.inject_parity(Packet(
            kind=PacketKind.REMOTE_STORE_ACK, src=dst, dst=src,
            payload_bytes=0))
        msc.remote_store_acks += 1
        sh.push(sh.shard_of[dst], "rst", dst, remote_addr, len(payload))

    def remote_load(self, src: int, target: int, remote_addr: int,
                    size: int) -> bytes:
        sh = self._shard
        sh.log(src, ("op", (), (src, target), 2))  # LOAD + REPLY packets
        if sh.shard_of[target] == sh.shard_id:
            return super().remote_load(src, target, remote_addr, size)
        scratch = self.alloc_scratch(src, bytes(size))
        command = Command(
            kind=CommandKind.REMOTE_LOAD, dst=target, raddr=remote_addr,
            laddr=scratch.addr, send_stride=StrideSpec.contiguous(size),
            recv_stride=StrideSpec.contiguous(size))
        msc = self.hw_cells[src].msc
        msc.remote_access_queue.push(command, command.words)
        msc.remote_access_queue.pop()
        sh.inject_parity(Packet(
            kind=PacketKind.REMOTE_LOAD, src=src, dst=target,
            payload_bytes=0, remote_addr=remote_addr,
            local_addr=scratch.addr,
            send_stride=command.send_stride))
        msc.stats.remote_loads += 1
        dcell = self.hw_cells[target]
        paddr = dcell.mc.translate(remote_addr, size, write=False)
        data = dcell.memory.read(paddr, size)
        sh.inject_parity(Packet(
            kind=PacketKind.REMOTE_LOAD_REPLY, src=target, dst=src,
            payload_bytes=len(data), remote_addr=scratch.addr))
        sh.push(sh.shard_of[target], "rld", target)
        return data


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _worker_main(machine: Machine, shard_id: int, plan: list[list[int]],
                 shard_of: list[int], mailbox: Any, ring_bytes: int,
                 conn: Any, program: Callable, args: tuple,
                 kwargs: dict) -> None:
    """Entry point of one forked worker process."""
    t0_proc = time.process_time()
    t0_wall = time.perf_counter()
    try:
        sh = _ShardState(machine, shard_id, plan, shard_of, mailbox,
                         ring_bytes, conn)
        machine.__class__ = _WorkerMachine
        machine._shard = sh
        results = _worker_run(machine, sh, program, args, kwargs)
        conn.send(("done",))
        if not _service_done(sh):
            return
        payload = _collect_payload(machine, sh, results,
                                   t0_proc, t0_wall)
        conn.send(("payload", payload))
    except (_WorkerAbort, EOFError, BrokenPipeError):
        pass
    except BaseException as exc:  # ship the failure to the parent
        tb = traceback.format_exc()
        try:
            conn.send(("error", exc, tb))
        except Exception:
            try:
                conn.send(("error",
                           f"{type(exc).__name__}: {exc}", tb))
            except Exception:
                pass


def _worker_run(machine: Machine, sh: _ShardState, program: Callable,
                args: tuple, kwargs: dict) -> dict[int, Any]:
    """Run this shard's cells under a local batched scheduler.

    The local loop mirrors :meth:`Machine._run_batched` over the
    shard's cells only; its interleaving does *not* have to match the
    serial schedule (the replay re-establishes that), it only has to
    respect each cell's own program order — which any generator
    scheduler does.
    """
    local = sorted(sh.local)
    results: dict[int, Any] = {}
    generators = sh.generators
    contexts = {pe: _ShardCellContext(machine, pe, sh) for pe in local}
    for pe in local:
        outcome = program(contexts[pe], *args, **kwargs)
        if inspect.isgenerator(outcome):
            generators[pe] = outcome
        else:
            results[pe] = outcome
    sh.gen_cells = sorted(generators)
    wake: set[int] = set()
    machine._wake = wake
    try:
        pending = set(generators)
        heap = sorted(pending)
        done: set[int] = set()
        nxt: set[int] = set()
        while True:
            while heap:
                pe = heapq.heappop(heap)
                if pe not in pending:
                    continue
                pending.discard(pe)
                done.add(pe)
                try:
                    next(generators[pe])
                except StopIteration as stop:
                    results[pe] = stop.value
                    del generators[pe]
                    machine._finished_cells.add(pe)
                    machine.progress += 1
                if wake:
                    for w in wake:
                        if w > pe and w not in done and w in generators:
                            if w not in pending:
                                pending.add(w)
                                heapq.heappush(heap, w)
                        else:
                            nxt.add(w)
                    wake.clear()
            if not generators:
                return results
            sh.drain()   # pick up cross-shard frames between rounds
            if wake:
                nxt.update(wake)
                wake.clear()
            pending = {w for w in nxt if w in generators}
            heap = sorted(pending)
            done.clear()
            nxt.clear()
            while not heap:
                if not sh.idle_wait():
                    raise _WorkerAbort
                if wake:
                    pending = {w for w in wake if w in generators}
                    wake.clear()
                    heap = sorted(pending)
    finally:
        machine._wake = None


def _service_done(sh: _ShardState) -> bool:
    """Post-run service loop: a finished worker may still own barrier,
    reduction, or receive-side state other shards keep targeting.  Ends
    at the parent's "collect" (True) or "abort" (False)."""
    conn = sh.conn
    while True:
        sh.drain()
        if conn.poll(0.005):
            msg = conn.recv()
            if msg[0] == "probe":
                conn.send(("probe-reply", msg[1], "done",
                           list(sh.sent), list(sh.recv)))
            elif msg[0] == "collect":
                sh.drain()
                return True
            elif msg[0] == "abort":
                return False
        if os.getppid() == 1:   # orphaned: parent is gone
            return False


def _collect_payload(machine: Machine, sh: _ShardState,
                     results: dict[int, Any], t0_proc: float,
                     t0_wall: float) -> dict[str, Any]:
    """Everything the parent needs: oplogs, results, and the state
    of the cells this worker owns."""
    cells = {pe: (machine.hw_cells[pe].state(), machine._heap_next[pe],
                  machine._private_next[pe])
             for pe in sorted(sh.local)}
    obs = machine.obs
    return {
        "shard": sh.shard_id,
        "results": results,
        "oplog": sh.oplog,
        "gen_cells": sh.gen_cells,
        "groups": dict(machine.trace.groups._groups),
        "phases": list(machine.trace._phase_labels),
        "cells": cells,
        "tnet": (machine.tnet.injected_count,
                 machine.tnet.delivered_count),
        "bnet": machine.bnet.broadcast_count,
        "obs": (None if obs is None else {
            "link_frames": dict(obs.link_frames),
            "link_bytes": dict(obs.link_bytes),
            "bnet_frames": obs.bnet_frames,
            "bnet_bytes": obs.bnet_bytes,
            "occupancy": [list(s) for s in obs.occupancy_series],
        }),
        "busy_s": time.process_time() - t0_proc,
        "wall_s": time.perf_counter() - t0_wall,
    }


# ----------------------------------------------------------------------
# Parent: setup, supervision, counter install
# ----------------------------------------------------------------------


def sharded_supported() -> bool:
    """The engine needs fork (workers inherit the machine's mappings)."""
    return "fork" in mp.get_all_start_methods()


def ineligible(machine: Machine) -> str | None:
    """Why this run cannot use the sharded engine (None: it can).

    Fault plans and armed checkpoint gates key on global scheduling
    state the workers cannot see; the cell memories are re-bound to
    *fresh* shared segments without copying, so the machine must be
    unused (no restore staged, no events, no traffic, no allocations).
    ``Machine.run`` records the reason as ``machine.engine["fallback"]``
    and runs the identical interleaving serially.
    """
    if machine.fault_plan is not None:
        return "fault plan"
    if (machine._restore_states is not None
            or machine._restore_ctx is not None
            or machine._restore_killed):
        return "restored machine"
    if machine.checkpoint_dir is not None or machine._ckpt_enabled():
        return "armed checkpoint"
    initial_heap = _align(flag_area_end(), 64)
    if not (machine.trace.total_events == 0
            and machine.tnet.injected_count == 0
            and all(h == initial_heap for h in machine._heap_next)
            and all(p == machine.config.memory_per_cell
                    for p in machine._private_next)):
        return "machine already used"
    if not sharded_supported():
        return "no fork"
    return None


def _bind_shared_memory(machine: Machine, plan: list[list[int]],
                        pool: SegmentPool) -> None:
    """Re-back every cell's DRAM with a per-shard shared segment.

    The machine is fresh (see :func:`eligible`), so both the old numpy
    buffers and the new segments are all-zero — no copy needed.  The
    rows of the boot banks (``repro.hardware.memory.zeroed_dram``) are
    dropped here, untouched, and their mappings go with them.  Array
    views carved out later (``ctx.alloc``) land in shared memory
    automatically, and the parent's own views stay valid after the
    workers exit because the pool unlinks without unmapping.
    """
    mem = machine.config.memory_per_cell
    for block in plan:
        seg = pool.create(len(block) * mem)
        for i, pe in enumerate(block):
            view = np.frombuffer(seg.buf, dtype=np.uint8, count=mem,
                                 offset=i * mem)
            machine.hw_cells[pe].memory.rebind(view)


def run_sharded(machine: Machine, program: Callable, args: tuple,
                kwargs: dict) -> list[Any]:
    """Execute ``program`` across worker processes; byte-identical to
    the serial batched engine (see module docstring)."""
    config = machine.config
    n = config.num_cells
    nshards = config.shards
    plan = partition(n, nshards)
    shard_of = [0] * n
    for s, block in enumerate(plan):
        for pe in block:
            shard_of[pe] = s
    # Windows are laid end to end; a multiple of 8 keeps every ring's
    # counters 8-byte aligned (ShmRing reads them as single loads).
    ring_bytes = -(-DEFAULT_RING_BYTES // 8) * 8
    t0_wall = time.perf_counter()
    machine._finished_cells = set()
    ctx = mp.get_context("fork")
    procs: list[Any] = []
    conns: list[Any] = []
    pool = SegmentPool()
    with pool:
        _bind_shared_memory(machine, plan, pool)
        window = _RING_HEADER + ring_bytes
        mailbox = pool.create(nshards * nshards * window)
        for shard in range(nshards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(machine, shard, plan, shard_of, mailbox,
                      ring_bytes, child_conn, program, args, kwargs),
                daemon=True)
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        try:
            payloads = _supervise(conns, procs)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join(timeout=10)
            for conn in conns:
                conn.close()
        t0_replay = time.process_time()
        results = _install_counters(machine, payloads)
        _replay(machine, shard_of, payloads)
        replay_s = time.process_time() - t0_replay
    busy = [pl["busy_s"] for pl in payloads]
    machine.shard_report = {
        "shards": nshards,
        "plan": [len(block) for block in plan],
        "worker_busy_s": busy,
        "worker_wall_s": [pl["wall_s"] for pl in payloads],
        "replay_s": replay_s,
        "wall_s": time.perf_counter() - t0_wall,
        # Modeled parallel makespan on an unloaded machine: the slowest
        # worker's CPU time plus the parent's serial replay (the right
        # metric on CI boxes where P workers share few cores).
        "critical_path_s": max(busy) + replay_s,
        "occupancy": {pl["shard"]: pl["obs"]["occupancy"]
                      for pl in payloads if pl["obs"] is not None},
    }
    return results


def _supervise(conns: list[Any], procs: list[Any]) -> list[dict]:
    """Parent control loop: route messages, detect global quiescence.

    Quiescence (all workers idle/done AND every pair's sent/recv frame
    counters match) with any worker still blocked is a deadlock; with
    all workers done it is completion, and payloads are collected only
    then — so late cross-shard frames can never be lost.
    """
    from multiprocessing.connection import wait as conn_wait

    n = len(conns)
    state = ["active"] * n
    reports = [""] * n
    probing = False
    probe_token = 0
    replies: dict[int, tuple[str, list[int], list[int]]] = {}

    def reset_probe() -> None:
        nonlocal probing
        probing = False
        replies.clear()

    while True:
        ready = conn_wait(conns, timeout=0.05)
        for conn in ready:
            i = conns.index(conn)
            try:
                while conn.poll():
                    msg = conn.recv()
                    kind = msg[0]
                    if kind == "idle":
                        state[i] = "idle"
                        reports[i] = msg[3]
                        reset_probe()
                    elif kind == "busy":
                        state[i] = "active"
                        reset_probe()
                    elif kind == "done":
                        state[i] = "done"
                        reset_probe()
                    elif kind == "probe-reply":
                        if probing and msg[1] == probe_token:
                            replies[i] = (msg[2], msg[3], msg[4])
                    elif kind == "error":
                        _raise_worker_error(i, msg[1], msg[2])
                    else:
                        raise CommunicationError(
                            f"unexpected worker message {kind!r}")
            except EOFError:
                raise CommunicationError(
                    f"shard worker {i} closed its pipe mid-run"
                ) from None
        for i, proc in enumerate(procs):
            if state[i] != "done" and not proc.is_alive():
                raise CommunicationError(
                    f"shard worker {i} died unexpectedly (exit code "
                    f"{proc.exitcode})")
        if probing and len(replies) == n:
            quiescent = (
                all(st in ("idle", "done")
                    for st, _, _ in replies.values())
                and all(replies[i][1][j] == replies[j][2][i]
                        for i in range(n) for j in range(n) if i != j))
            if quiescent:
                if all(st == "done" for st, _, _ in replies.values()):
                    return _collect_all(conns)
                body = "\n".join(r for r in reports if r)
                raise DeadlockError(
                    "sharded run quiescent with blocked cells\n" + body)
            reset_probe()
        if not probing and all(st in ("idle", "done") for st in state):
            probe_token += 1
            probing = True
            replies.clear()
            for conn in conns:
                conn.send(("probe", probe_token))


def _collect_all(conns: list[Any]) -> list[dict]:
    """Global quiescence proven: pull every worker's final payload."""
    for conn in conns:
        conn.send(("collect",))
    payloads: list[dict] = []
    for i, conn in enumerate(conns):
        while True:
            msg = conn.recv()
            if msg[0] == "payload":
                payloads.append(msg[1])
                break
            if msg[0] == "error":
                _raise_worker_error(i, msg[1], msg[2])
            if msg[0] not in ("idle", "busy", "done", "probe-reply"):
                raise CommunicationError(
                    f"unexpected worker message {msg[0]!r} at collect")
    return payloads


def _raise_worker_error(shard: int, exc: Any, tb: str) -> None:
    if isinstance(exc, str):
        exc = CommunicationError(exc)
    exc.add_note(f"shard worker {shard} traceback:\n{tb}")
    raise exc


def _install_counters(machine: Machine,
                      payloads: list[dict]) -> list[Any]:
    """Load each worker's results and the state of the cells it owned
    into the parent machine (network counts are sums over workers);
    returns the assembled per-cell results list."""
    results: list[Any] = [None] * machine.config.num_cells
    for pl in sorted(payloads, key=lambda p: p["shard"]):
        for pe, value in pl["results"].items():
            results[pe] = value
        for pe, (cell, heap, private) in pl["cells"].items():
            machine.hw_cells[pe].load_state(cell)
            machine._heap_next[pe] = heap
            machine._private_next[pe] = private
        machine.tnet.injected_count += pl["tnet"][0]
        machine.tnet.delivered_count += pl["tnet"][1]
        machine.bnet.broadcast_count += pl["bnet"]
        if machine.obs is not None and pl["obs"] is not None:
            obs = machine.obs
            for link, count in pl["obs"]["link_frames"].items():
                obs.link_frames[link] = (obs.link_frames.get(link, 0)
                                         + count)
            for link, nbytes in pl["obs"]["link_bytes"].items():
                obs.link_bytes[link] = (obs.link_bytes.get(link, 0)
                                        + nbytes)
            obs.bnet_frames += pl["obs"]["bnet_frames"]
            obs.bnet_bytes += pl["obs"]["bnet_bytes"]
    machine.tnet._next_serial = machine.tnet.injected_count
    return results


# ----------------------------------------------------------------------
# Replay: re-run the serial batched schedule over the oplogs
# ----------------------------------------------------------------------


class _Cursor:
    """One cell's position in its oplog during replay."""

    __slots__ = ("items", "idx", "wait", "pending")

    def __init__(self, items: list[tuple]) -> None:
        self.items = items
        self.idx = 0
        #: Blocking state carried across resumes (None = runnable).
        self.wait: tuple | None = None
        #: Canonical serial for the next SEND/RECV event's msg_id.
        self.pending: int | None = None


def _replay(machine: Machine, shard_of: list[int],
            payloads: list[dict]) -> None:
    """Run the serial engine's wake rounds over the shipped oplogs.

    Cells "resume" by advancing their oplog cursor; flag increments,
    message serials, barrier releases and reduction completions replay
    in the exact serial order, so the trace records every event with
    the sequence number, msg_id, group id and phase id the serial
    engine would have assigned.
    """
    trace = machine.trace
    groups_of: dict[int, dict[int, tuple]] = {}
    phases_of: dict[int, list[str]] = {}
    oplogs: dict[int, list[tuple]] = {}
    genset: set[int] = set()
    for pl in payloads:
        groups_of[pl["shard"]] = pl["groups"]
        phases_of[pl["shard"]] = pl["phases"]
        oplogs.update(pl["oplog"])
        genset.update(pl["gen_cells"])
    world = tuple(range(machine.config.num_cells))

    flags: dict[tuple[int, int], int] = {}
    rings: dict[int, deque] = {}
    bars: dict[tuple, list] = {}     # members -> [generation, arrived]
    reds: dict[tuple, dict] = {}
    cregs: set[tuple[int, int]] = set()
    inject = 0
    cursors = {pe: _Cursor(items) for pe, items in oplogs.items()}

    def record(row: list) -> None:
        """Append a logged row (its ``seq`` slot unused) with the shard's
        group and phase ids made the parent's."""
        kind, pe = row[0], row[1]
        if kind in (EventKind.BARRIER, EventKind.GOP, EventKind.VGOP):
            row[12] = trace.groups.intern(groups_of[shard_of[pe]][row[12]])
        elif kind is EventKind.PHASE:
            row[10] = trace.phase_id(phases_of[shard_of[pe]][row[10] - 1])
        trace.append(*row[:2], *row[3:15], ranges=tuple(row[15:]) or None)

    def arrive(pe: int, item: tuple, wake: set[int]) -> tuple:
        """First processing of a blocking item: apply arrival side
        effects once; returns the wait state to re-check on resumes."""
        t = item[0]
        if t == "bar":
            members = item[1]
            st = bars.setdefault(members, [0, set()])
            st[1].add(pe)
            gen = st[0]
            if len(st[1]) == len(members):
                st[1].clear()
                st[0] = gen + 1
                wake.update(members)
                if members == world:
                    for m in members:
                        machine.snet.arrive(m)
            return ("bar", members, gen)
        if t == "red":
            members = item[1]
            rd = reds.setdefault(members, {"pgen": {}, "slots": {},
                                           "ready": set(), "fetch": {}})
            g = rd["pgen"].get(pe, 0)
            rd["pgen"][pe] = g + 1
            slot = rd["slots"].setdefault(g, set())
            slot.add(pe)
            if len(slot) == len(members):
                del rd["slots"][g]
                rd["ready"].add(g)
                rd["fetch"][g] = 0
                wake.update(members)
            return ("red", members, g)
        if t == "wf":
            return ("wf", item[1], item[2])
        if t == "cl":
            return ("cl", item[1])
        assert t == "wr"
        return ("wr", item[1], item[2])

    def try_pass(cur: _Cursor, pe: int, wait: tuple) -> bool:
        """Re-check a blocking condition (mirrors the serial spin)."""
        t = wait[0]
        if t == "wf":
            return flags.get((pe, wait[1]), 0) >= wait[2]
        if t == "bar":
            return bars[wait[1]][0] > wait[2]
        if t == "red":
            members, g = wait[1], wait[2]
            rd = reds[members]
            if g not in rd["ready"]:
                return False
            rd["fetch"][g] += 1
            if rd["fetch"][g] >= len(members):
                rd["ready"].discard(g)
                del rd["fetch"][g]
            return True
        if t == "cl":
            if (pe, wait[1]) in cregs:
                cregs.discard((pe, wait[1]))  # try_load clears the p-bit
                return True
            return False
        assert t == "wr"
        queue = rings.get(pe)
        if queue:
            for i, (src, ctx_, serial) in enumerate(queue):
                if src == wait[1] and (wait[2] is None
                                       or ctx_ == wait[2]):
                    del queue[i]
                    cur.pending = serial
                    return True
        return False

    def advance(pe: int, wake: set[int]) -> bool:
        """One scheduler resume: run to the next block or to the end.
        Returns True when the cell's oplog is exhausted (finished)."""
        nonlocal inject
        cur = cursors[pe]
        items = cur.items
        while True:
            if cur.wait is not None:
                if not try_pass(cur, pe, cur.wait):
                    return False
                cur.wait = None
            if cur.idx >= len(items):
                return True
            item = items[cur.idx]
            cur.idx += 1
            t = item[0]
            if t == "ev":
                row = list(item[1])
                if (cur.pending is not None
                        and row[0] in (EventKind.SEND, EventKind.RECV)):
                    row[9] = cur.pending
                    cur.pending = None
                record(row)
            elif t == "op":
                for owner, addr in item[1]:
                    flags[(owner, addr)] = flags.get((owner, addr), 0) + 1
                wake.update(item[2])
                inject += item[3]
            elif t == "snd":
                serial = inject
                inject += 1
                rings.setdefault(item[1], deque()).append(
                    (pe, item[2], serial))
                cur.pending = serial
                wake.add(item[1])
            elif t == "fc":
                flags[(pe, item[1])] = 0
            elif t == "grp":
                trace.groups.intern(item[1])
            elif t == "cs":
                cregs.add((item[1], item[2]))
                wake.add(item[1])
            elif t in ("wf", "wr", "bar", "red", "cl"):
                cur.wait = arrive(pe, item, wake)
            else:  # pragma: no cover - vocabulary is closed
                raise CommunicationError(
                    f"unknown oplog item {t!r} during sharded replay")

    # Non-generator programs ran at creation time in the serial engine,
    # in ascending pe order, with no wake set active.
    discard: set[int] = set()
    for pe in sorted(oplogs):
        if pe not in genset:
            if not advance(pe, discard):
                raise CommunicationError(
                    f"cell {pe}: non-generator program blocked during "
                    "sharded replay")

    # The serial engine's wake rounds, with next(gen) replaced by
    # advance().
    live = set(genset)
    wake: set[int] = set()

    def resume(pe: int) -> None:
        if advance(pe, wake):
            live.discard(pe)
            machine._finished_cells.add(pe)
            machine.progress += 1

    def idle() -> None:
        raise CommunicationError(
            "sharded replay diverged from the worker execution: "
            f"cells {sorted(live)[:8]} blocked with no wake "
            "pending (this is a bug in the sharded engine)")

    run_wake_rounds(live, wake, resume, idle)
