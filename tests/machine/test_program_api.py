"""Unit tests for the CellContext PUT/GET/SEND programming interface."""

import numpy as np
import pytest

from repro.core.completion import AckPolicy
from repro.core.errors import CommunicationError, ConfigurationError
from repro.core.stride import ElementStride
from repro.faults.chaos import memory_digest
from repro.machine import batch
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
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


def one_batch(ctx, batched, node, pad, cached):
    """Cell 0 issues the batch toward ``node``, as one or command by
    command; returns its acknowledge books and the machine's progress
    right after it."""
    if pad:
        # Push the arrays 16 MB up: their 256 KB page then shares a TLB
        # slot with the flag page, and the lookups alternate in it.
        ctx.alloc(2 << 20)
    theirs, ours = ctx.alloc(64), ctx.alloc(64)
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
    if batched:
        ctx.transfer_batch(node, theirs, ours, BATCH_GETS, remote_offsets,
                           local_offsets, recv_flag=flag, ack=True)
    else:
        for get, r, loc in zip(BATCH_GETS, remote_offsets, local_offsets):
            if get:
                ctx.get(node, theirs, ours, count=1, remote_offset=r,
                        local_offset=loc, recv_flag=flag)
            else:
                ctx.put(node, theirs, ours, count=1, dest_offset=r,
                        src_offset=loc, ack=True)
    after = (ctx.acks.state(), ctx.machine.progress)
    yield from ctx.barrier()
    return after


class TestTransferBatch:
    """A batch against the same commands through ``put`` / ``get``."""

    @staticmethod
    def run(batched, policy, sanitize, node, pad=False, cached=False):
        machine = Machine(MachineConfig(
            num_cells=2, memory_per_cell=(32 if pad else 4) << 20,
            sanitize=sanitize), ack_policy=policy)
        after = machine.run(one_batch, batched, node, pad, cached)[0]
        return machine, after

    @pytest.mark.parametrize("policy", AckPolicy.ALL)
    @pytest.mark.parametrize("sanitize", [False, True])
    @pytest.mark.parametrize("node", [1, 0], ids=["peer", "self"])
    @pytest.mark.parametrize("pad,cached", [(False, False), (True, False),
                                            (False, True)],
                             ids=["plain", "tlb-conflict", "cache-resident"])
    def test_batch_leaves_what_its_commands_leave(
            self, monkeypatch, policy, sanitize, node, pad, cached):
        issued = []
        real = batch.issue_batch

        def spy(*args):
            issued.append(real(*args))
            return issued[-1]

        monkeypatch.setattr(batch, "issue_batch", spy)
        ours, after = self.run(True, policy, sanitize, node, pad, cached)
        theirs, expected = self.run(False, policy, sanitize, node, pad,
                                    cached)
        assert issued == [True]         # one batch, not expanded
        assert after == expected        # acknowledge books, progress
        block, want = ours.trace.block(), theirs.trace.block()
        assert block.keys() == want.keys()
        for name in want:
            assert block[name].tobytes() == want[name].tobytes(), name
        assert memory_digest(ours) == memory_digest(theirs)
        for mine, other in zip(ours.hw_cells, theirs.hw_cells):
            assert mine.state() == other.state()
        assert ours.tnet.state() == theirs.tnet.state()
        if pad:     # every lookup of cell 0 evicted the one before
            assert ours.hw_cells[0].mc.mmu.walks > len(BATCH_GETS)
        if cached:
            assert ours.hw_cells[node].cache.invalidated_lines > 0

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
