"""A run of one-element PUTs and GETs, issued as one batch.

:meth:`CellContext.transfer_batch <repro.machine.program.CellContext.
transfer_batch>` names a run of plain transfers between two arrays —
what the VPP runtime issues element by element when it may not stride
(TOMCATV without stride, section 5.4) — as offset arrays.  Issued one
by one, every command walks the whole PUT/GET path; here, on a perfect
and unobserved wire, the run is planned and then issued in a few array
operations per batch, leaving every row, byte, flag word and counter as
the commands one by one would (:func:`issue_batch`).

The plan refuses whatever it cannot reproduce exactly: a wire that
holds frames (a fault plan), an observer, a back end below the
recording or issue seam (a sharded worker, a doomed cell, a tee),
commands already queued, a trace without room, a command that would
raise, and a run whose writes overlap what it reads (or one another) on
either cell.  The caller then issues the commands one by one: that
expansion is the oracle the fast path is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.completion import AckPolicy
from repro.core.flags import Flag
from repro.hardware.dma import MAX_DMA_BYTES, MIN_DMA_BYTES
from repro.hardware.memory import WORD_BYTES
from repro.hardware.queues import COMMAND_WORDS
from repro.machine.program import CellContext, LocalArray
from repro.trace.buffer import ROW, UNANNOTATED, TraceBuffer
from repro.trace.events import EventKind

#: The rows of a batch: a PUT, its acknowledging GET, a GET.
_PUT, _ACK, _GET = 0, 1, 2
#: Beyond any address, either way.
_FAR = 1 << 62


def _disjoint(reads: np.ndarray, writes: np.ndarray, flags: list[int],
              size: int) -> bool:
    """No two of the ``size``-byte ``writes`` overlap, none overlaps a
    read, and no flag word overlaps either."""
    if len(writes) > 1:
        writes = np.sort(writes)
        if np.any(np.diff(writes) < size):
            return False
    if len(writes) and len(reads):
        # Each read against the nearest write on either side of it.
        bounded = np.concatenate(([-_FAR], writes, [_FAR]))
        right = np.searchsorted(bounded, reads)
        if np.any((bounded[right] - reads < size)
                  | (reads - bounded[right - 1] < size)):
            return False
    if not flags:
        return True
    data = np.concatenate((reads, writes))
    return not any(np.any((data < word + WORD_BYTES) & (word < data + size))
                   for word in flags)


def issue_batch(ctx: CellContext, node: int, remote: LocalArray,
                local: LocalArray, gets: np.ndarray, remote_offsets:
                np.ndarray, local_offsets: np.ndarray,
                recv_flag: Flag | None, ack: bool) -> bool:
    """Issue a non-empty run as :meth:`CellContext.transfer_batch`
    describes it, or return False, having changed nothing, for the
    caller to issue its commands one by one."""
    machine = ctx.machine
    record = ctx._record
    ports = machine.tnet.ports
    size = local.itemsize
    if (ports is None or machine.obs is not None
            or getattr(record, "__func__", None) is not TraceBuffer.append
            or type(ctx)._issue is not CellContext._issue
            or not 0 <= node < len(ports) or ports[node] is None
            or remote.itemsize != size
            or not MIN_DMA_BYTES <= size <= MAX_DMA_BYTES
            or min(remote_offsets.min(), local_offsets.min()) < 0
            or remote_offsets.max() >= remote.size
            or local_offsets.max() >= local.size):
        return False
    trace: TraceBuffer = record.__self__
    pe = ctx.pe
    count = len(gets)
    n_gets = int(np.count_nonzero(gets))
    n_puts = count - n_gets
    acked = ack and n_puts > 0
    inline = acked and ctx.acks.policy == AckPolicy.EVERY_PUT
    # One row per command, an acknowledging GET after each PUT when the
    # policy sends it at once.
    command = np.repeat(np.arange(count), np.where(gets, 1, 1 + inline))
    kind = np.where(gets[command], _GET, _PUT)
    if inline:
        kind[1:][command[1:] == command[:-1]] = _ACK
    rows = len(kind)
    n_acks = rows - count
    requests = n_gets + n_acks
    here, there = machine.hw_cells[pe].msc, machine.hw_cells[node].msc
    if trace.total_events + rows > trace.capacity or any(
            times and (queue.pushed != queue.popped
                       or queue.capacity_words < COMMAND_WORDS)
            for queue, times in ((here.user_send_queue, rows),
                                 (there.get_reply_queue, requests))):
        return False
    raddr = remote.addr + remote_offsets[command] * size
    laddr = local.addr + local_offsets[command] * size

    # Each row's MMU lookups in the order the commands make them: a PUT
    # gathers here and scatters there; its acknowledge counts the ack
    # flag here; a GET's reply gathers there, scatters here and counts
    # the receive flag here.
    cell = np.full((rows, 3), -1)
    addr = np.zeros((rows, 3), np.int64)
    put, acks, get = kind == _PUT, kind == _ACK, kind == _GET
    cell[put, 0], addr[put, 0] = pe, laddr[put]
    cell[put, 1], addr[put, 1] = node, raddr[put]
    cell[acks, 0], addr[acks, 0] = pe, ctx.ack_flag.addr
    cell[get, 0], addr[get, 0] = node, raddr[get]
    cell[get, 1], addr[get, 1] = pe, laddr[get]
    if recv_flag is not None:
        cell[get, 2], addr[get, 2] = pe, recv_flag.addr
    # Only the gathers read; scatters and flag increments write.
    write = np.ones((rows, 3), bool)
    write[:, 0] = acks
    cell, addr, write = cell.ravel(), addr.ravel(), write.ravel()
    physical = np.zeros_like(addr)
    lookups = []
    for target in {pe, node}:
        mine = cell == target
        logical = addr[mine]
        mmu = machine.hw_cells[target].mc.mmu
        where = mmu.plan_run(logical, write[mine], size)
        if (where is None or where.min() < 0 or where.max() + size
                > machine.hw_cells[target].memory.size_bytes):
            return False
        physical[mine] = where
        lookups.append((mmu, logical))
    physical = physical.reshape(rows, 3)
    put_src, put_dst = physical[put, 0], physical[put, 1]
    get_src, get_dst = physical[get, 0], physical[get, 1]
    # The flag words the replies count here: (physical, increments).
    flags = []
    if n_acks:
        flags.append((int(physical[acks, 0][0]), n_acks))
    if n_gets and recv_flag is not None:
        flags.append((int(physical[get, 2][0]), n_gets))
    words = [word for word, _ in flags]
    if not (_disjoint(np.concatenate((put_src, get_src)),
                      np.concatenate((put_dst, get_dst)), words, size)
            if node == pe else
            _disjoint(put_src, get_dst, words, size)
            and _disjoint(get_src, put_dst, [], size)):
        return False

    # Issue: the rows, the acknowledge books, the TLB traffic, then the
    # hardware side of every command at once.
    templates = np.empty((3, ROW), object)
    templates[:] = [
        (EventKind.PUT, pe, 0, node, size, False, 0, 0, False,
         0, 0, 0, 0, 0, 0.0),
        (EventKind.GET, pe, 0, node, 0, False, 0, ctx.ack_flag.id_on(pe),
         True, 0, 0, 0, 0, 0, 0.0),
        (EventKind.GET, pe, 0, node, size, False, 0,
         recv_flag.id_on(pe) if recv_flag is not None else 0, False,
         0, 0, 0, 0, 0, 0.0)]
    ranges = None
    if machine.sanitize:
        # A transfer's footprint: one contiguous item on either side.
        ranges = np.empty((rows, 8), np.int64)
        ranges[:] = (0, size, 1, size, 0, size, 1, size)
        ranges[:, 0], ranges[:, 4] = raddr, laddr
        ranges[acks] = UNANNOTATED
    trace.append_rows(templates[kind], ranges)
    if acked:
        ctx.acks.record_puts(node, n_puts)
    for mmu, logical in lookups:
        mmu.charge_run(logical)
    machine.progress += here.exchange_run(
        there, size, put_src, put_dst, get_src, get_dst, n_acks, flags)
    wake = machine._wake
    if wake is not None:
        wake.add(node)
        if requests:
            wake.add(pe)
    return True
