"""Generated SPMD programs over the whole public cell vocabulary.

A program is a list of ``(op, shift)`` steps; :func:`round_program` runs
each as one SPMD round in which every cell does ``op`` toward
``(pe + shift) mod P`` and then the matching wait.  The ops cover put /
get and their strided forms, acked put, send-recv, barriers of all cells
and of a sub-group, scalar and sub-group vector reductions (the
sub-group ops share one non-world group per parity), communication
registers, remote word access, batches of one-element PUTs and GETs (one
that reads what it wrote, one refused part-way) and the
``repro.core.api`` spellings;
steps write disjoint slots and only ever read remotely the never-written
``out`` array or what its owner wrote before a barrier.  So the only
race a generated program has is ``batch_overlap``'s own: its PUT sends,
without a wait, what its GET landed (exact on the functional machine,
which lands a GET before issuing the next command; a ``RACE-PUT-GET``
on the AP1000+, where the MSC+ orders nothing beyond the flag update).
The equivalence tests (back ends, wires, streamed traces, the
checker's happens-before against its sweep-replay oracle) draw from
:data:`programs`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core import api
from repro.core.errors import CommunicationError
from repro.core.stride import ElementStride
from repro.trace.events import EventKind
from tests.trace.views import events_for

MEMORY = 1 << 21
#: Elements of the receive area each step owns.
SLOT = 8
WORD = 8  # bytes per element

#: Element strides moving four elements: every other one, or two pairs.
EVERY_OTHER = ElementStride(1, 4, 2)
PAIRS = ElementStride(2, 2, 4)


def _flagged(ctx):
    """A fresh flag and the wait for its single increment."""
    flag = ctx.alloc_flag()
    return flag, ctx.flag_wait(flag, 1)


def op_put(ctx, k, to, frm, out, inbox, seen):
    flag, landed = _flagged(ctx)
    ctx.put(to, inbox, out, count=SLOT, dest_offset=k * SLOT,
            recv_flag=flag)
    yield from landed


def op_put_stride(ctx, k, to, frm, out, inbox, seen):
    flag, landed = _flagged(ctx)
    ctx.put_stride(to, inbox, out, EVERY_OTHER, PAIRS,
                   dest_offset=k * SLOT, recv_flag=flag)
    yield from landed


def op_get(ctx, k, to, frm, out, inbox, seen):
    flag, landed = _flagged(ctx)
    ctx.get(to, out, inbox, count=SLOT - 2, remote_offset=1,
            local_offset=k * SLOT, recv_flag=flag)
    yield from landed


def op_get_stride(ctx, k, to, frm, out, inbox, seen):
    flag, landed = _flagged(ctx)
    ctx.get_stride(to, out, inbox, PAIRS, EVERY_OTHER,
                   local_offset=k * SLOT, recv_flag=flag)
    yield from landed


def op_acked_put(ctx, k, to, frm, out, inbox, seen):
    ctx.put(to, inbox, out, count=3, dest_offset=k * SLOT, ack=True)
    ctx.put(to, inbox, out, count=2, dest_offset=k * SLOT + 4, ack=True)
    yield from ctx.finish_puts()


def op_send_recv(ctx, k, to, frm, out, inbox, seen):
    ctx.send(to, out.data[2:6], context=k)
    values = yield from ctx.recv_array(np.float64, src=frm, context=k)
    inbox.data[k * SLOT:k * SLOT + 4] = values


def op_barrier(ctx, k, to, frm, out, inbox, seen):
    yield from ctx.barrier()


# Named to sort after ``batch``: in EVERY_OP a sub-group barrier between
# ``barrier`` and ``batch``'s opening one would split their chain.
def op_subgroup_barrier(ctx, k, to, frm, out, inbox, seen):
    same_parity = ctx.make_group(range(ctx.pe % 2, ctx.num_cells, 2))
    yield from ctx.barrier(same_parity)


def op_gop(ctx, k, to, frm, out, inbox, seen):
    seen.append((yield from ctx.gop(float(ctx.pe + k),
                                    "max" if k % 2 else "sum")))


def op_vgop_subgroup(ctx, k, to, frm, out, inbox, seen):
    same_parity = ctx.make_group(range(ctx.pe % 2, ctx.num_cells, 2))
    inbox.data[k * SLOT:k * SLOT + 4] = yield from ctx.vgop(
        out.data[:4], "sum", group=same_parity)


def op_creg(ctx, k, to, frm, out, inbox, seen):
    ctx.creg_store(to, k, 1000 * ctx.pe + k)
    seen.append((yield from ctx.creg_load(k)))


def op_remote_word(ctx, k, to, frm, out, inbox, seen):
    ctx.remote_store_word(to, inbox, k * SLOT, float(ctx.pe))
    seen.append(ctx.remote_load_word(to, out, 3))
    yield from ()


def _seeded(ctx, k, inbox):
    """Write the first two elements of slot ``k`` here, then barrier, so
    that the batch ops may read them remotely; returns the slot base."""
    base = k * SLOT
    inbox.data[base:base + 2] = (1000.0 * ctx.pe + k, -1.0 - k)
    yield from ctx.barrier()
    return base


def op_batch(ctx, k, to, frm, out, inbox, seen):
    """Interleaved one-element PUTs (acked) and GETs in one batch."""
    base = yield from _seeded(ctx, k, inbox)
    flag = ctx.alloc_flag()
    ctx.transfer_batch(to, inbox, inbox, [False, True, False, True],
                       [base + 4, base + 1, base + 6, base],
                       [base, base + 5, base + 1, base + 7],
                       recv_flag=flag, ack=True)
    yield from ctx.flag_wait(flag, 2)
    yield from ctx.finish_puts()


def op_batch_overlap(ctx, k, to, frm, out, inbox, seen):
    """A batch that reads what it wrote: its GET reads back there what
    its first PUT landed, its last PUT sends on what the GET landed."""
    base = yield from _seeded(ctx, k, inbox)
    flag = ctx.alloc_flag()
    ctx.transfer_batch(to, inbox, inbox, [False, True, False],
                       [base + 2, base + 2, base + 3],
                       [base, base + 4, base + 4], recv_flag=flag, ack=True)
    yield from ctx.flag_wait(flag, 1)
    yield from ctx.finish_puts()


def op_batch_refused(ctx, k, to, frm, out, inbox, seen):
    """A batch whose last command fails its bounds check: the commands
    before it are issued, and it is refused as it would be alone."""
    base = yield from _seeded(ctx, k, inbox)
    flag = ctx.alloc_flag()
    try:
        ctx.transfer_batch(to, inbox, inbox, [True, False, True],
                           [base, base + 6, base + 1],
                           [base + 5, base + 1, inbox.size],
                           recv_flag=flag, ack=True)
    except CommunicationError:
        seen.append(-1.0)
    yield from ctx.flag_wait(flag, 1)
    yield from ctx.finish_puts()


def op_api_put(ctx, k, to, frm, out, inbox, seen):
    flag, landed = _flagged(ctx)
    api.put(ctx, to, inbox.element_addr(k * SLOT), out.addr, SLOT * WORD,
            recv_flag=flag)
    yield from landed


def op_api_get(ctx, k, to, frm, out, inbox, seen):
    flag, landed = _flagged(ctx)
    api.get(ctx, to, out.element_addr(2), inbox.element_addr(k * SLOT),
            4 * WORD, recv_flag=flag)
    yield from landed


def op_api_put_stride(ctx, k, to, frm, out, inbox, seen):
    flag, landed = _flagged(ctx)
    api.put_stride(ctx, to, inbox.element_addr(k * SLOT), out.addr, False,
                   None, flag,
                   send_item_size=WORD, send_cnt=4, send_skip=2 * WORD,
                   recv_item_size=2 * WORD, recv_cnt=2, recv_skip=3 * WORD)
    yield from landed


def op_api_get_stride(ctx, k, to, frm, out, inbox, seen):
    flag, landed = _flagged(ctx)
    api.get_stride(ctx, to, out.addr, inbox.element_addr(k * SLOT),
                   None, flag,
                   send_item_size=WORD, send_cnt=3, send_skip=3 * WORD,
                   recv_item_size=3 * WORD, recv_cnt=1, recv_skip=3 * WORD)
    yield from landed


def op_api_remote(ctx, k, to, frm, out, inbox, seen):
    flag, landed = _flagged(ctx)
    api.write_remote(ctx, to, inbox.element_addr(k * SLOT), out.addr,
                     2 * WORD)
    yield from ctx.finish_puts()
    api.read_remote(ctx, to, out.element_addr(5),
                    inbox.element_addr(k * SLOT + 4), 2 * WORD,
                    recv_flag=flag)
    yield from landed


OPS = {name[3:]: fn for name, fn in sorted(globals().items())
       if name.startswith("op_")}


def round_program(ctx, steps):
    """Each step is one SPMD round: every cell does the op toward
    ``(pe + shift) mod P``, then the matching wait."""
    cells = ctx.num_cells
    out = ctx.alloc(SLOT)
    inbox = ctx.alloc(SLOT * len(steps))
    out.data[:] = np.arange(SLOT) + 100.0 * ctx.pe
    seen: list = []
    yield from ctx.barrier()
    for k, (op, shift) in enumerate(steps):
        yield from OPS[op](ctx, k, (ctx.pe + shift) % cells,
                           (ctx.pe - shift) % cells, out, inbox, seen)
    yield from ctx.barrier()
    return [float(v) for v in seen], inbox.data.tolist()


programs = st.lists(
    st.tuples(st.sampled_from(sorted(OPS)), st.integers(1, 3)),
    min_size=1, max_size=8)
#: The generated programs sample the vocabulary; this one is all of it.
EVERY_OP = [(op, 1 + k % 3) for k, op in enumerate(sorted(OPS))]


_GROUPED_KINDS = {EventKind.BARRIER, EventKind.GOP, EventKind.VGOP}


def _event_key(ev, trace):
    """The interleaving-independent identity of one recorded event.

    Message serials (``msg_id``) and the global issue counter (``seq``)
    depend on scheduling order and are excluded; group ids are replaced
    by member tuples because interning order is interleaving-dependent.
    """
    members = ()
    if ev.kind in _GROUPED_KINDS:
        members = trace.groups.members(ev.group)
    return (
        ev.kind.name, ev.partner, ev.size, ev.stride, ev.is_ack,
        ev.send_flag, ev.recv_flag, ev.flag, ev.target, members,
        ev.group_size,
        ev.raddr, ev.rchunk, ev.rcount, ev.rstep,
        ev.laddr, ev.lchunk, ev.lcount, ev.lstep,
    )


def event_keys(trace, pe):
    return [_event_key(ev, trace) for ev in events_for(trace, pe)]
