"""Host cost of one small message must stay a small constant.

Counts, not seconds (as in ``test_width_scaling``): calls into
``repro.machine`` / ``.network`` / ``.hardware`` per command a program
issues, and into ``repro.trace`` per event it records, under
cProfile.  The counts repeat exactly, so the ceilings sit just above
what the implementation does today; per-message object
churn (a descriptor rebuilt, a range checked twice, an empty queue
polled) shows up here as a failure rather than as a slower benchmark.
"""

import cProfile
import os
import pstats

import numpy as np

import repro
import repro.machine.batch  # noqa: F401  (a first batch would import it)
from repro.apps import tomcatv
from repro.apps.latency import run_ping_pong
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.events import TraceEvent

LAYERS = tuple(os.path.join(os.path.dirname(repro.__file__), layer) + os.sep
               for layer in ("machine", "network", "hardware"))
TRACE = os.path.join(os.path.dirname(repro.__file__), "trace") + os.sep
#: Profiled calls one more 8-byte PUT may cost; ``scripts/primitive_cost.py
#: --max-put-calls`` holds its ``calls`` row to the same number in CI.
PUT_CALLS_CEILING = 48
#: Profiled calls one more 8-byte GET, and one more acknowledging GET
#: (to address 0), may cost.
GET_CALLS_CEILING = 63
ACK_GET_CALLS_CEILING = 38
#: Profiled calls, builtins included, one more TOMCATV-shaped halo batch
#: may cost; ``scripts/primitive_cost.py --max-batch-calls`` holds its
#: ``halo`` row to the same number in CI.
BATCH_CALLS_CEILING = 132
#: Rows of that halo: one PUT and one GET per row.
HALO_ROWS = 65


def layer_calls_per_command(runner, *args, **kwargs):
    profile = cProfile.Profile()
    run = profile.runcall(runner, *args, **kwargs)
    assert run.verified
    calls = sum(
        ncalls
        for (filename, _, _), (_, ncalls, *_)
        in pstats.Stats(profile).stats.items()
        if filename.startswith(LAYERS))
    commands = sum(cell.msc.user_send_queue.pushed
                   for cell in run.machine.hw_cells)
    return calls / commands


def test_tomcatv_without_stride():
    # 8-byte PUTs, each with its acknowledging GET, and GETs: 1.25 today,
    # the runtime handing each halo's run of them to the cell as one
    # batch (32.2 while every command was issued on its own; 36.6 while
    # every command was pushed, its cell marked dirty and
    # popped by the pump, and every GET request pushed on arrival and
    # popped by ``pump_replies``; 37.7 while a probe built a
    # ``TraceEvent`` and reached the buffer through a ``_record``
    # method; 43.1 while the MSC+ dispatched through ``_execute`` and
    # ``_receive_*``, a TLB probe was a call and an empty cache still
    # walked its range; 49.1 while the wire held every frame for the
    # pump to find, 86.5 before descriptors were interned and checks
    # deduplicated).
    cost = layer_calls_per_command(
        tomcatv.run, 4, n=33, iters=1, use_stride=False)
    assert cost < 1.3, cost


def test_tomcatv_without_stride_per_recorded_event():
    # Calls into the machine, network, hardware and trace layers per
    # event TC no st records: 1.25 today (30.7 while every element-wise
    # command was issued, and its row appended, on its own).  A batch
    # costs a few dozen calls whatever its length, so anything paid per
    # element again shows up here at once.
    profile = cProfile.Profile()
    run = profile.runcall(tomcatv.run, 4, n=33, iters=1, use_stride=False)
    calls = sum(
        ncalls
        for (filename, _, _), (_, ncalls, *_)
        in pstats.Stats(profile).stats.items()
        if filename.startswith((*LAYERS, TRACE)))
    cost = calls / run.machine.trace.total_events
    assert cost < 1.3, cost


def test_tomcatv_records_rows_not_events():
    # A probe is one ``TraceBuffer.append``, a batch one
    # ``append_rows``: 60 calls into ``repro.trace`` for 646 events
    # today, 52 probes, 6 batches and set-up (646 plus 3 of set-up while
    # each element was its own probe; 1 292 plus set-up, and 646
    # ``TraceEvent``s built, while each probe built an event and handed
    # it to ``record``).
    profile = cProfile.Profile()
    run = profile.runcall(tomcatv.run, 4, n=33, iters=1, use_stride=False)
    entries = [entry for entry in profile.getstats()
               if not isinstance(entry.code, str)]
    calls = sum(entry.callcount for entry in entries
                if entry.code.co_filename.startswith(TRACE))
    built = sum(entry.callcount for entry in entries
                if entry.code is TraceEvent.__init__.__code__)
    events = run.machine.trace.total_events
    assert built == 0, built
    assert calls <= events + 4, (calls, events)


def test_ping_pong():
    # One PUT and one blocking flag wait per command, so the scheduler's
    # share is in here too: 48.0 today (51.0 while the pump took every
    # command out of its queue; 53.0, 64.0, 71.0, 118.0 before).
    cost = layer_calls_per_command(run_ping_pong, 4, iters=256)
    assert cost < 49, cost


def put_burst(ctx, size, count):
    src = ctx.alloc(size, np.uint8)
    dst = ctx.alloc(size, np.uint8)
    yield from ctx.barrier()
    if ctx.pe == 0:
        for _ in range(count):
            ctx.put(1, dst, src)
    yield from ctx.barrier()


def get_burst(ctx, ack, count):
    """``count`` 8-byte GETs (or acknowledging GETs) as
    ``scripts/primitive_cost.py`` issues them."""
    src = ctx.alloc(8, np.uint8)
    dst = ctx.alloc(8, np.uint8)
    flag = ctx.alloc_flag()
    yield from ctx.barrier()
    if ctx.pe == 0:
        for _ in range(count):
            if ack:
                ctx.ack_get(1)
            else:
                ctx.get(1, src, dst, recv_flag=flag)
    yield from ctx.barrier()


def calls_per_message(burst, *args):
    """Profiled calls, builtins included, one more message of
    ``burst(ctx, *args, count)`` costs: the difference of two bursts,
    so set-up drops out.  Counted per code object: ``pstats`` keys a
    function by file, line and name, and so merges every dataclass's
    generated ``__init__`` (all ``<string>:__init__``) into one entry."""
    def total(count):
        machine = Machine(MachineConfig(num_cells=2,
                                        memory_per_cell=1 << 21))
        profile = cProfile.Profile()
        profile.runcall(machine.run, burst, *args, count)
        return sum(entry.callcount for entry in profile.getstats())

    return (total(48) - total(16)) / 32


def calls_per_put(size):
    return calls_per_message(put_burst, size)


def test_put_cost_does_not_grow_with_the_lines_it_invalidates():
    # A 4 KB PUT covers 128 cache lines and a 160 000-byte one more
    # lines than the cache has; with nothing resident both must cost
    # what an 8-byte PUT costs, not a tag probe per line: 45.0, 45.4
    # and 47.4 today, the last translating across a page boundary on
    # both sides (52.0, 52.4 and 54.4 while the pump took every command
    # out of its queue; 54.4, 54.4 and 56.4 while each probe built a
    # ``TraceEvent`` and reached the buffer through a ``_record``
    # method.  Earlier counts were taken through ``pstats``, which hid
    # the dataclass ``__init__``s: 62.4, 62.4 and 61.4 before the MSC+
    # was folded, 70.4 and 324.4 while invalidate_range always walked
    # the lines of the range).  The two large ones are held to each
    # other and all three to a ceiling, so a cheaper small PUT cannot
    # hide a walk.
    small, page, large = (calls_per_put(size) for size in (8, 4096, 160_000))
    assert abs(page - large) <= 4, (page, large)
    assert max(small, page, large) < PUT_CALLS_CEILING, (small, page, large)


def test_get_is_answered_where_it_lands():
    # A GET request is answered in the call that delivers it, and its
    # reply lands in the same call chain: 62.4 calls per 8-byte GET and
    # 37.3 per acknowledging GET today (73.4 and 48.3 while the command
    # went through the pump and the request was pushed on arrival and
    # popped by ``pump_replies``).
    get = calls_per_message(get_burst, False)
    ack = calls_per_message(get_burst, True)
    assert get < GET_CALLS_CEILING, get
    assert ack < ACK_GET_CALLS_CEILING, ack


def halo_burst(ctx, count):
    """``count`` halo exchanges as TOMCATV without stride issues them:
    one batch of :data:`HALO_ROWS` 8-byte PUTs into the right
    neighbour's left halo column, each with its acknowledging GET, and
    GETs of its first owned column into this cell's right halo."""
    cols = 4
    block = ctx.alloc((HALO_ROWS, cols))
    flag = ctx.alloc_flag()
    halo = np.arange(HALO_ROWS) * cols
    gets = np.tile([False, True], HALO_ROWS)
    remote = np.column_stack((halo, halo + 1)).ravel()
    local = np.column_stack((halo + cols - 2, halo + cols - 1)).ravel()
    yield from ctx.barrier()
    if ctx.pe == 0:
        for _ in range(count):
            ctx.transfer_batch(1, block, block, gets, remote, local,
                               recv_flag=flag, ack=True)
    yield from ctx.barrier()


def test_halo_batch_cost():
    # One more halo batch, every call counted (numpy's and builtins
    # too): 130.0 today (285.3 while each cell's lookups were planned
    # one by one and two ``_disjoint`` calls checked the overlaps).  The batch is planned per array, so a cost paid
    # per lookup or per cell shows up here before it shows in seconds.
    calls = calls_per_message(halo_burst)
    assert calls < BATCH_CALLS_CEILING, calls
