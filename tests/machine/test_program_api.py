"""Unit tests for the CellContext PUT/GET/SEND programming interface."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import AckPolicy
from repro.core.errors import CommunicationError, ConfigurationError
from repro.core.stride import ElementStride
from repro.faults.chaos import memory_digest
from repro.faults.plan import FaultPlan
from repro.hardware.memory import WORD_BYTES
from repro.hardware.mmu import PAGE_4K, PAGE_256K
from repro.hardware.queues import COMMAND_WORDS
from repro.machine import batch
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.program import CellContext
from repro.trace.events import EventKind
from tests.trace.views import events_for


def make(n=4):
    return Machine(MachineConfig(num_cells=n, memory_per_cell=1 << 22))


class TestPut:
    def test_ring_put_delivers(self):
        m = make(4)

        def program(ctx):
            src = ctx.alloc(8)
            dst = ctx.alloc(8)
            flag = ctx.alloc_flag()
            src.data[:] = ctx.pe
            right = (ctx.pe + 1) % ctx.num_cells
            ctx.put(right, dst, src, recv_flag=flag)
            yield from ctx.flag_wait(flag, 1)
            return float(dst.data[0])

        assert m.run(program) == [3.0, 0.0, 1.0, 2.0]

    def test_partial_put_with_offsets(self):
        m = make(2)

        def program(ctx):
            src = ctx.alloc(8)
            dst = ctx.alloc(8)
            flag = ctx.alloc_flag()
            src.data[:] = np.arange(8) + 10 * ctx.pe
            yield from ctx.barrier()
            if ctx.pe == 0:
                ctx.put(1, dst, src, count=3, dest_offset=4, src_offset=2,
                        recv_flag=flag)
            else:
                yield from ctx.flag_wait(flag, 1)
                return dst.data[4:7].tolist()

        assert m.run(program)[1] == [2.0, 3.0, 4.0]

    def test_dtype_mismatch_rejected(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(8, np.float64)
            b = ctx.alloc(8, np.float32)
            ctx.put(1, b, a)

        with pytest.raises(CommunicationError):
            m.run(program)

    def test_bounds_checked(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(8)
            ctx.put(1, a, a, count=9)

        with pytest.raises(CommunicationError):
            m.run(program)

    def test_send_flag_counts_send_completion(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(4)
            sf = ctx.alloc_flag()
            ctx.put(1 - ctx.pe, a, a, send_flag=sf)
            # Non-blocking PUT, but the functional model completes the
            # send DMA before returning, so the flag is already set.
            return ctx.flag_read(sf)

        assert m.run(program) == [1, 1]


class TestPutStride:
    def test_column_exchange(self):
        m = make(2)

        def program(ctx):
            mat = ctx.alloc((4, 4))
            flag = ctx.alloc_flag()
            mat.data[:] = ctx.pe
            yield from ctx.barrier()
            if ctx.pe == 0:
                col = ElementStride(items_per_block=1, count=4, skip=4)
                ctx.put_stride(1, mat, mat, col, col,
                               dest_offset=1, src_offset=2, recv_flag=flag)
            else:
                yield from ctx.flag_wait(flag, 1)
                return mat.data[:, 1].tolist(), mat.data[:, 0].tolist()

        cols = m.run(program)[1]
        assert cols[0] == [0.0] * 4   # written column
        assert cols[1] == [1.0] * 4   # untouched column

    def test_mismatched_totals_rejected(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(16)
            ctx.put_stride(1, a, a,
                           ElementStride(1, 4, 2), ElementStride(1, 3, 2))

        with pytest.raises(CommunicationError):
            m.run(program)


class TestGet:
    def test_get_pulls_remote_data(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(4)
            b = ctx.alloc(4)
            flag = ctx.alloc_flag()
            a.data[:] = float(ctx.pe + 5)
            yield from ctx.barrier()
            ctx.get(1 - ctx.pe, a, b, recv_flag=flag)
            yield from ctx.flag_wait(flag, 1)
            return float(b.data[0])

        assert m.run(program) == [6.0, 5.0]

    def test_get_stride(self):
        m = make(2)

        def program(ctx):
            mat = ctx.alloc((3, 3))
            out = ctx.alloc(3)
            flag = ctx.alloc_flag()
            mat.data[:] = np.arange(9).reshape(3, 3) + 100 * ctx.pe
            yield from ctx.barrier()
            # Fetch the remote matrix's column 1.
            ctx.get_stride(1 - ctx.pe, mat, out,
                           ElementStride(1, 3, 3), ElementStride(3, 1, 3),
                           remote_offset=1, recv_flag=flag)
            yield from ctx.flag_wait(flag, 1)
            return out.data.tolist()

        results = m.run(program)
        assert results[0] == [101.0, 104.0, 107.0]
        assert results[1] == [1.0, 4.0, 7.0]


class TestAcknowledge:
    def test_finish_puts_counts_acks(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(4)
            other = 1 - ctx.pe
            for _ in range(3):
                ctx.put(other, a, a, ack=True)
            yield from ctx.finish_puts()
            return ctx.flag_read(ctx.ack_flag)

        assert m.run(program) == [3, 3]

    def test_ack_events_marked_in_trace(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(4)
            ctx.put(1 - ctx.pe, a, a, ack=True)
            yield from ctx.finish_puts()

        m.run(program)
        acks = [ev for pe in range(2) for ev in events_for(m.trace, pe)
                if ev.kind is EventKind.GET and ev.is_ack]
        assert len(acks) == 2


class TestSendRecv:
    def test_send_recv_roundtrip(self):
        m = make(2)

        def program(ctx):
            if ctx.pe == 0:
                ctx.send(1, np.arange(4.0))
                return None
            packet = yield from ctx.recv(src=0)
            return np.frombuffer(packet.data, dtype=np.float64).tolist()

        assert m.run(program)[1] == [0.0, 1.0, 2.0, 3.0]

    def test_recv_array_helper(self):
        m = make(2)

        def program(ctx):
            if ctx.pe == 0:
                ctx.send(1, np.array([7.0, 8.0]))
                return None
            arr = yield from ctx.recv_array(np.float64, src=0)
            return arr.tolist()

        assert m.run(program)[1] == [7.0, 8.0]

    def test_context_filtering(self):
        m = make(2)

        def program(ctx):
            if ctx.pe == 0:
                ctx.send(1, b"AA", context=1)
                ctx.send(1, b"BB", context=2)
                return None
            second = yield from ctx.recv(context=2)
            first = yield from ctx.recv(context=1)
            return first.data, second.data

        assert m.run(program)[1] == (b"AA", b"BB")

    def test_bytes_payload(self):
        m = make(2)

        def program(ctx):
            if ctx.pe == 0:
                ctx.send(1, b"raw-bytes")
                return None
            packet = yield from ctx.recv()
            return packet.data

        assert m.run(program)[1] == b"raw-bytes"


#: A batch of one-element commands: GET where True, else PUT.  PUTs
#: read ``ours[0:]`` into ``theirs[0:]``, GETs ``theirs[32:]`` into
#: ``ours[32:]``, so no command touches what another one moves.
BATCH_GETS = [False, True, True, False, False, True, False, True, True,
              False, True, False]


def batch_offsets():
    theirs = [32 + 2 * i if get else 3 * i
              for i, get in enumerate(BATCH_GETS)]
    ours = [40 + i if get else 2 * i for i, get in enumerate(BATCH_GETS)]
    return theirs, ours


def one_batch(ctx, batched, node, layout, cached, flags=True):
    """Cell 0 issues the batch toward ``node``, as one or command by
    command, its PUTs acknowledged and its GETs counted on a flag unless
    ``flags`` is False; returns its acknowledge books and the machine's
    progress right after it."""
    if layout == "slot":
        # Push the arrays 16 MB up: their 256 KB page then shares a TLB
        # slot with the flag page, and the lookups alternate in it.
        ctx.alloc(2 << 20)
    elif layout == "straddle":
        # Start ``theirs`` 256 bytes below the first 256 KB boundary.
        start = ctx.alloc(1).addr
        ctx.alloc((PAGE_256K - 256 - start - 64) // 8)
    theirs, ours = ctx.alloc(64), ctx.alloc(64)
    if layout == "straddle":
        assert theirs.addr == PAGE_256K - 256
    flag = ctx.alloc_flag()
    theirs.data[:] = np.arange(64) + 100.0 * ctx.pe
    ours.data[:] = -np.arange(64) - 100.0 * ctx.pe
    if cached:
        ctx.hw.cache.read(theirs.addr, theirs.nbytes)
        ctx.hw.cache.read(ours.addr, ours.nbytes)
    yield from ctx.barrier()
    if ctx.pe != 0:
        yield from ctx.barrier()
        return None
    remote_offsets, local_offsets = batch_offsets()
    recv_flag = flag if flags else None
    if batched:
        ctx.transfer_batch(node, theirs, ours, BATCH_GETS, remote_offsets,
                           local_offsets, recv_flag=recv_flag, ack=flags)
    else:
        issue_one_by_one(ctx, node, theirs, ours, BATCH_GETS,
                         remote_offsets, local_offsets, recv_flag, flags)
    after = (ctx.acks.state(), ctx.machine.progress)
    yield from ctx.barrier()
    return after


def issue_one_by_one(ctx, node, theirs, ours, gets, remote_offsets,
                     local_offsets, flag, ack):
    """A batch's commands through ``get`` and ``put``."""
    for get, r, loc in zip(gets, remote_offsets, local_offsets):
        if get:
            ctx.get(node, theirs, ours, count=1, remote_offset=r,
                    local_offset=loc, recv_flag=flag)
        else:
            ctx.put(node, theirs, ours, count=1, dest_offset=r,
                    src_offset=loc, ack=ack)


def assert_same_machines(ours, theirs):
    """Trace block, memory, every hardware part and the T-net."""
    block, want = ours.trace.block(), theirs.trace.block()
    assert block.keys() == want.keys()
    for name in want:
        assert block[name].tobytes() == want[name].tobytes(), name
    assert memory_digest(ours) == memory_digest(theirs)
    for mine, other in zip(ours.hw_cells, theirs.hw_cells):
        assert mine.state() == other.state()
    assert ours.tnet.state() == theirs.tnet.state()


def spy_on_batches(monkeypatch):
    """What each ``issue_batch`` call returns, in a list."""
    returned = []
    real = batch.issue_batch

    def spy(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(batch, "issue_batch", spy)
    return returned


class TestTransferBatch:
    """A batch against the same commands through ``put`` / ``get``."""

    @staticmethod
    def run(batched, policy, sanitize, node, layout="low", cached=False,
            flags=True):
        machine = Machine(MachineConfig(
            num_cells=2, memory_per_cell=(32 if layout == "slot" else 4)
            << 20, sanitize=sanitize), ack_policy=policy)
        after = machine.run(one_batch, batched, node, layout, cached,
                            flags)[0]
        return machine, after

    @pytest.mark.parametrize("policy", AckPolicy.ALL)
    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("node", [1, 0], ids=["peer", "self"])
    @pytest.mark.parametrize("layout,cached", [
        ("low", False), ("slot", False), ("low", True), ("straddle", False)],
        ids=["plain", "tlb-conflict", "cache-resident", "straddle"])
    def test_batch_leaves_what_its_commands_leave(
            self, monkeypatch, policy, sanitize, node, layout, cached):
        issued = spy_on_batches(monkeypatch)
        ours, after = self.run(True, policy, sanitize, node, layout, cached)
        theirs, expected = self.run(False, policy, sanitize, node, layout,
                                    cached)
        assert issued == [None]         # one batch, not expanded
        assert after == expected        # acknowledge books, progress
        assert_same_machines(ours, theirs)
        if layout == "slot":    # every lookup of cell 0 evicted the one before
            assert ours.hw_cells[0].mc.mmu.walks > len(BATCH_GETS)
        if cached:
            assert ours.hw_cells[node].cache.invalidated_lines > 0

    @pytest.mark.parametrize("node", [1, 0], ids=["peer", "self"])
    def test_a_batch_without_flags(self, monkeypatch, node):
        """No acknowledge and no receive flag: no flag word is looked up
        or counted."""
        issued = spy_on_batches(monkeypatch)
        ours, after = self.run(True, AckPolicy.EVERY_PUT, False, node,
                               flags=False)
        theirs, expected = self.run(False, AckPolicy.EVERY_PUT, False, node,
                                    flags=False)
        assert issued == [None]
        assert after == expected
        assert_same_machines(ours, theirs)

    def test_overlapping_batch_is_expanded(self):
        """A batch reading back what it wrote is issued command by
        command, and so reads what the single commands would."""
        def program(ctx):
            box = ctx.alloc(8)
            flag = ctx.alloc_flag()
            box.data[:] = np.arange(8) + 10.0 * ctx.pe
            yield from ctx.barrier()
            if ctx.pe == 0:
                # PUT box[0] to box[4] there, GET it back into box[6].
                ctx.transfer_batch(1, box, box, [False, True], [4, 4],
                                   [0, 6], recv_flag=flag)
                yield from ctx.flag_wait(flag, 1)
            yield from ctx.barrier()
            return box.data.tolist()

        results = make(2).run(program)
        assert results[0][6] == 0.0 and results[1][4] == 0.0

    def test_refused_command_stops_the_batch_where_it_stands(self):
        def program(ctx):
            box = ctx.alloc(8)
            if ctx.pe == 0:
                with pytest.raises(CommunicationError, match="bounds"):
                    ctx.transfer_batch(1, box, box, False, [0, 1, 8],
                                       [0, 1, 2])
            yield from ctx.barrier()

        m = make(2)
        m.run(program)
        assert m.trace.count(EventKind.PUT) == 2

    def test_offsets_must_pair_up(self):
        def program(ctx):
            box = ctx.alloc(8)
            ctx.transfer_batch(1 - ctx.pe, box, box, True, [0, 1], [0])

        with pytest.raises(CommunicationError, match="one remote and one"):
            make(2).run(program)


@given(items=st.lists(st.tuples(st.integers(0, 96), st.booleans()),
                      max_size=12),
       words=st.lists(st.integers(0, 100), max_size=2),
       size=st.sampled_from([4, 8, 16]))
@settings(max_examples=300, deadline=None)
def test_overlap_is_any_overlapping_pair(items, words, size):
    """The one-sort overlap check against every pair of items."""
    keys = np.array([2 * addr + written for addr, written in items],
                    np.int64)
    pairwise = any(
        abs(a - b) < size and (wa or wb)
        for i, (a, wa) in enumerate(items) for b, wb in items[i + 1:])
    flagged = any(word - size < addr < word + WORD_BYTES
                  for addr, _ in items for word in words)
    assert batch._overlap(keys, size, words) == (pairwise or flagged)


def _tee(ctx):
    """A back end below the recording seam: ``_record`` rebound."""
    record = ctx._record
    ctx._record = lambda *args, **fields: record(*args, **fields)


class _Relay(CellContext):
    """A back end below the issue seam."""

    def _issue(self, command):
        super()._issue(command)


def _relay(ctx):
    ctx.__class__ = _Relay


def _starve_queue(ctx):
    """A send queue smaller than one command."""
    ctx.hw.msc.user_send_queue.capacity_words = COMMAND_WORDS - 1


def _map_4k(ctx, theirs, ours):
    page = ours.addr - ours.addr % PAGE_4K
    ctx.hw.mc.mmu.map_page(page, page)


def _off_dram(ctx, theirs, ours):
    """Map the page of ``theirs`` past the end of DRAM."""
    page = theirs.addr - theirs.addr % PAGE_256K
    ctx.hw.mc.mmu.map_page(page, ctx.hw.memory.size_bytes, size=PAGE_256K)


#: How each reason ``issue_batch`` gives is forced: machine settings,
#: what a cell does to itself (``cell``) or once the arrays exist
#: (``arrays``, on ``pe``), and the batch's gets, remote and local
#: offsets and node, where they differ from :data:`BATCH_GETS`'s.
REASON_CASES = {
    "wire": dict(config=dict(fault_plan=FaultPlan())),
    "observer": dict(config=dict(observe=True)),
    "recorder": dict(cell=_tee),
    "issuer": dict(cell=_relay),
    "node": dict(node=2),
    "item": dict(dtype=np.float32),
    "bounds": dict(gets=[False, True, False], remote=[0, 32, 64],
                   local=[0, 40, 2]),
    "trace": dict(config=dict(trace_capacity=8)),
    "queued": dict(cell=_starve_queue),
    "page": dict(arrays=_map_4k, pe=0),
    "dram": dict(arrays=_off_dram, pe=1),
    # PUT ours[0] to theirs[4], GET it back into ours[6].
    "overlap": dict(gets=[False, True], remote=[4, 4], local=[0, 6]),
}


def reason_batch(ctx, batched, case):
    """Cell 0 issues one batch toward cell 1 (``case`` may change its
    shape) as one ``transfer_batch`` or command by command; every cell
    returns its arrays."""
    if "cell" in case and ctx.pe == 0:
        case["cell"](ctx)
    if "arrays" in case:
        # Arrays alone in their 256 KB page: one above the flag page.
        ctx.alloc(PAGE_256K // 8)
    theirs = ctx.alloc(64)
    ours = ctx.alloc(64, case.get("dtype", np.float64))
    flag = ctx.alloc_flag()
    theirs.data[:] = np.arange(64) + 100.0 * ctx.pe
    ours.data[:] = -np.arange(64) - 100.0 * ctx.pe
    if "arrays" in case and ctx.pe == case["pe"]:
        case["arrays"](ctx, theirs, ours)
    yield from ctx.barrier()
    if ctx.pe == 0:
        gets = case.get("gets", BATCH_GETS)
        remote_offsets, local_offsets = batch_offsets()
        remote_offsets = case.get("remote", remote_offsets)
        local_offsets = case.get("local", local_offsets)
        node = case.get("node", 1)
        if batched:
            ctx.transfer_batch(node, theirs, ours, gets, remote_offsets,
                               local_offsets, recv_flag=flag, ack=True)
        else:
            issue_one_by_one(ctx, node, theirs, ours, gets, remote_offsets,
                             local_offsets, flag, True)
        yield from ctx.flag_wait(flag, sum(gets))
    yield from ctx.barrier()
    return theirs.data.tobytes(), ours.data.tobytes()


class TestBatchReasons:
    """Every reason ``issue_batch`` declines a batch for, forced: the
    batch is then its commands one by one, errors included."""

    @staticmethod
    def run(batched, case):
        machine = Machine(MachineConfig(num_cells=2, memory_per_cell=4 << 20,
                                        **case.get("config", {})))
        try:
            outcome = machine.run(reason_batch, batched, case)
        except Exception as error:     # the same error, at the same command
            outcome = (type(error), str(error))
        return machine, outcome

    def test_every_reason_is_forced(self):
        assert sorted(REASON_CASES) == sorted(batch.REASONS)

    @pytest.mark.parametrize("reason", sorted(REASON_CASES))
    def test_a_declined_batch_is_its_commands(self, monkeypatch, reason):
        returned = spy_on_batches(monkeypatch)
        ours, outcome = self.run(True, REASON_CASES[reason])
        theirs, expected = self.run(False, REASON_CASES[reason])
        assert returned == [reason]
        assert outcome == expected
        assert_same_machines(ours, theirs)


class TestComputeCharging:
    def test_negative_work_rejected(self):
        m = make(1)
        with pytest.raises(ConfigurationError):
            m.run(lambda ctx: ctx.compute(-1.0))

    def test_zero_work_not_traced(self):
        m = make(1)
        m.run(lambda ctx: ctx.compute(0.0))
        assert m.trace.total_events == 0

    def test_flops_conversion(self):
        m = make(1)
        m.run(lambda ctx: ctx.compute_flops(100))
        ev = events_for(m.trace, 0)[0]
        assert ev.work == pytest.approx(16.0)   # 100 flops * 0.16 us

    def test_rtsys_separate_kind(self):
        m = make(1)
        m.run(lambda ctx: ctx.rtsys(5.0))
        assert events_for(m.trace, 0)[0].kind is EventKind.RTSYS
