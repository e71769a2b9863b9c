"""A run of one-element PUTs and GETs, issued as one batch.

:meth:`CellContext.transfer_batch <repro.machine.program.CellContext.
transfer_batch>` names a run of plain transfers between two arrays —
what the VPP runtime issues element by element when it may not stride
(TOMCATV without stride, section 5.4) — as offset arrays.  Issued one
by one, every command walks the whole PUT/GET path; here, on a perfect
and unobserved wire, the run is planned and then issued in a few array
operations per batch, leaving every row, byte, flag word and counter as
the commands one by one would (:func:`issue_batch`).

The plan is made per array, not per lookup.  Each cell a batch touches
translates one array (both, when a cell batches with itself) and the
flag words its replies count, all inside the extent the offsets' minimum
and maximum give.  Where that extent lies in one 256 KB page, the cell's
plan is one page check (:meth:`MMU.plan_page
<repro.hardware.mmu.MMU.plan_page>`: mapped, no 4 KB mapping inside,
writable where written, no stale TLB entry) and one logical-to-physical
delta, and its TLB traffic is one lookup and hits.  Only where the
extent spans pages are the lookups planned one by one, in the order the
commands make them (:meth:`~repro.hardware.mmu.MMU.plan_run`): the TLB
then sees each change of page.  Per item, the plan checks that every
physical range lies in DRAM and that no range a cell writes overlaps
another range the batch moves on that cell, or a flag word it counts.

The plan declines whatever it cannot reproduce exactly, and
:func:`issue_batch` names why (:data:`REASONS`): a wire that holds
frames (a fault plan), an observer, a back end below the recording or
issue seam (a sharded worker, a doomed cell, a tee), a command that
would raise (a dead or absent node, mismatched or unmovable items,
offsets outside an array), a trace without room, commands already
queued, a page the plan refuses, a range outside DRAM, and overlapping
ranges.  The caller then issues the commands one by one: that expansion
is the oracle the fast path is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.core.completion import AckPolicy
from repro.core.flags import Flag
from repro.hardware.dma import MAX_DMA_BYTES, MIN_DMA_BYTES
from repro.hardware.memory import WORD_BYTES
from repro.hardware.mmu import PAGE_256K
from repro.hardware.queues import COMMAND_WORDS
from repro.machine.program import CellContext, LocalArray
from repro.trace.buffer import ROW, UNANNOTATED, TraceBuffer
from repro.trace.events import EventKind

#: The rows of a batch: a PUT, its acknowledging GET, a GET.
_PUT, _ACK, _GET = 0, 1, 2
#: Why :func:`issue_batch` declines a batch, in the order it asks.
REASONS = ("wire", "observer", "recorder", "issuer", "node", "item",
           "bounds", "trace", "queued", "page", "dram", "overlap")


def _lookup_order(kind: np.ndarray, command: np.ndarray | None, pe: int,
                  node: int, laddr: np.ndarray, raddr: np.ndarray,
                  ack_word: int, recv_word: int | None,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Every MMU lookup of a batch's rows in the order the commands
    make them, as (cell, logical address): a PUT gathers here and
    scatters there; its acknowledge counts the ack flag here; a GET's
    reply gathers there, scatters here and counts the receive flag
    here (``recv_word``, if not None).  ``command`` maps rows to
    commands (None: one row each)."""
    if command is not None:
        laddr, raddr = laddr[command], raddr[command]
    cell = np.full((len(kind), 3), -1)
    addr = np.zeros((len(kind), 3), np.int64)
    put, acks, get = kind == _PUT, kind == _ACK, kind == _GET
    cell[put, 0], addr[put, 0] = pe, laddr[put]
    cell[put, 1], addr[put, 1] = node, raddr[put]
    cell[acks, 0], addr[acks, 0] = pe, ack_word
    cell[get, 0], addr[get, 0] = node, raddr[get]
    cell[get, 1], addr[get, 1] = pe, laddr[get]
    if recv_word is not None:
        cell[get, 2], addr[get, 2] = pe, recv_word
    return cell.ravel(), addr.ravel()


def _overlap(keys: np.ndarray, size: int, words: list[int]) -> bool:
    """Whether two of one cell's ``size``-byte items overlap where one
    of them is written, or an item overlaps one of the flag ``words``.
    An item is a key: its physical address times two, plus one where it
    is written.  Sorted, an overlap that involves a write shows between
    neighbours: the item next to the write on the other's side lies
    between them, so overlaps the write too."""
    keys.sort()
    addr = keys >> 1
    if ((addr[1:] - addr[:-1] < size) & (keys[1:] | keys[:-1])).any():
        return True
    for word in words:
        # The first item starting after ``word - size`` is the only one
        # that can reach the word without starting beyond it.
        first = addr.searchsorted(word - size, "right")
        if first < len(addr) and addr[first] < word + WORD_BYTES:
            return True
    return False


def issue_batch(ctx: CellContext, node: int, remote: LocalArray,
                local: LocalArray, gets: np.ndarray, remote_offsets:
                np.ndarray, local_offsets: np.ndarray,
                recv_flag: Flag | None, ack: bool) -> str | None:
    """Issue a non-empty run as :meth:`CellContext.transfer_batch`
    describes it and return None, or return why not (one of
    :data:`REASONS`), having changed nothing, for the caller to issue
    its commands one by one."""
    machine = ctx.machine
    record = ctx._record
    ports = machine.tnet.ports
    size = local.itemsize
    if ports is None:
        return "wire"
    if machine.obs is not None:
        return "observer"
    if getattr(record, "__func__", None) is not TraceBuffer.append:
        return "recorder"
    if type(ctx)._issue is not CellContext._issue:
        return "issuer"
    if not 0 <= node < len(ports) or ports[node] is None:
        return "node"
    if remote.itemsize != size or not MIN_DMA_BYTES <= size <= MAX_DMA_BYTES:
        return "item"
    r_lo, r_hi = int(remote_offsets.min()), int(remote_offsets.max())
    l_lo, l_hi = int(local_offsets.min()), int(local_offsets.max())
    if min(r_lo, l_lo) < 0 or r_hi >= remote.size or l_hi >= local.size:
        return "bounds"
    trace: TraceBuffer = record.__self__
    pe = ctx.pe
    count = len(gets)
    n_gets = int(np.count_nonzero(gets))
    n_puts = count - n_gets
    acked = ack and n_puts > 0
    # An acknowledging GET after each PUT when the policy sends it at once.
    n_acks = n_puts if acked and ctx.acks.policy == AckPolicy.EVERY_PUT \
        else 0
    rows = count + n_acks
    requests = n_gets + n_acks
    if trace.total_events + rows > trace.capacity:
        return "trace"
    here, there = machine.hw_cells[pe].msc, machine.hw_cells[node].msc
    sends, replies = here.user_send_queue, there.get_reply_queue
    if (sends.pushed != sends.popped or sends.capacity_words < COMMAND_WORDS
            or requests and (replies.pushed != replies.popped
                             or replies.capacity_words < COMMAND_WORDS)):
        return "queued"

    puts = ~gets
    laddr = local_offsets * size + local.addr
    raddr = remote_offsets * size + remote.addr
    # The flag words the replies count here, and how many times each.
    words, times = [], []
    if n_acks:
        words.append(ctx.ack_flag.addr)
        times.append(n_acks)
    recv_word = None
    if n_gets and recv_flag is not None:
        recv_word = recv_flag.addr
        words.append(recv_word)
        times.append(n_gets)
    # Each cell's lookups: the arrays it translates (a flag word once)
    # and which of their items it writes, the first and last item of
    # their extent, whether any is written, and how many lookups.
    ours = [local.addr + l_lo * size, local.addr + l_hi * size, *words]
    theirs = [remote.addr + r_lo * size, remote.addr + r_hi * size]
    looked_up = count + sum(times)
    if node == pe:
        ours += theirs
        sides = [(pe, (laddr, raddr, np.array(words, np.int64)),
                  (gets, puts), min(ours), max(ours), True,
                  looked_up + count)]
    else:
        sides = [(pe, (laddr, np.array(words, np.int64)), (gets,),
                  min(ours), max(ours), bool(n_gets or words), looked_up),
                 (node, (raddr,), (puts,), *theirs, n_puts > 0, count)]
    kind = np.where(gets, _GET, _PUT)
    command = None
    if n_acks:
        command = np.repeat(np.arange(count), 2 - gets)
        kind = kind[command]
        kind[1:][command[1:] == command[:-1]] = _ACK
    order = None
    physical, charges = [], []
    for cell, arrays, writes, first, last, written, lookups in sides:
        hw = machine.hw_cells[cell]
        mmu = hw.mc.mmu
        logical = np.concatenate(arrays)
        page = first // PAGE_256K
        if page == (last + size - 1) // PAGE_256K:
            base = mmu.plan_page(page, written)
            if base is None:
                return "page"
            delta = base - page * PAGE_256K
            where = logical + delta
            low, high = first + delta, last + delta
            charges.append((mmu.charge_page, (first, lookups)))
        else:
            # Only a cell whose lookups span pages plans them one by
            # one, and charges them in the order its commands make them.
            # Its flag words come last, and are written.
            write = np.ones(len(logical), bool)
            write[:count * len(writes)] = np.concatenate(writes)
            where = mmu.plan_run(logical, write, size)
            if where is None:
                return "page"
            low, high = int(where.min()), int(where.max())
            if order is None:
                order = _lookup_order(kind, command, pe, node, laddr, raddr,
                                      ctx.ack_flag.addr, recv_word)
            charges.append((mmu.charge_run, (order[1][order[0] == cell],)))
        if low < 0 or high + size > hw.memory.size_bytes:
            return "dram"
        physical.append(where)
    # The items each cell moves, as keys for :func:`_overlap`.
    here_items = physical[0]
    lphys = here_items[:count]
    if node == pe:
        rphys = here_items[count:2 * count]
        flag_words = here_items[2 * count:].tolist()
        overlap = _overlap(np.concatenate((lphys * 2 + gets,
                                           rphys * 2 + puts)),
                           size, flag_words)
    else:
        rphys = physical[1]
        flag_words = here_items[count:].tolist()
        overlap = (_overlap(lphys * 2 + gets, size, flag_words)
                   or _overlap(rphys * 2 + puts, size, []))
    if overlap:
        return "overlap"

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
        if command is None:
            ranges[:, 0], ranges[:, 4] = raddr, laddr
        else:
            ranges[:, 0], ranges[:, 4] = raddr[command], laddr[command]
        ranges[kind == _ACK] = UNANNOTATED
    trace.append_rows(templates[kind], ranges)
    if acked:
        ctx.acks.record_puts(node, n_puts)
    for charge, args in charges:
        charge(*args)
    machine.progress += here.exchange_run(
        there, size, lphys[puts], rphys[puts], rphys[gets], lphys[gets],
        n_acks, list(zip(flag_words, times)))
    wake = machine._wake
    if wake is not None:
        wake.add(node)
        if requests:
            wake.add(pe)
    return None
