"""Unit tests for the paper-signature API (core.api) and the Ack & Barrier
completion model (core.completion)."""

import numpy as np
import pytest

from repro.check.comm import analyze_program
from repro.core import api
from repro.core.completion import AckPolicy, AckTracker
from repro.core.flags import Flag
from repro.faults.chaos import trace_digest
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine


def make(n=2):
    return Machine(MachineConfig(num_cells=n, memory_per_cell=1 << 22))


class TestPaperSignatures:
    def test_put_with_raw_addresses(self):
        m = make(2)

        def program(ctx):
            buf = ctx.alloc(8)
            flag = ctx.alloc_flag()
            buf.data[:] = float(ctx.pe + 1)
            yield from ctx.barrier()
            if ctx.pe == 0:
                api.put(ctx, 1, buf.addr, buf.addr, 32, recv_flag=flag)
            else:
                yield from ctx.flag_wait(flag, 1)
                return buf.data[:4].tolist()

        assert m.run(program)[1] == [1.0] * 4

    def test_get_with_raw_addresses(self):
        m = make(2)

        def program(ctx):
            buf = ctx.alloc(8)
            flag = ctx.alloc_flag()
            buf.data[:] = float(ctx.pe + 1)
            yield from ctx.barrier()
            api.get(ctx, 1 - ctx.pe, buf.addr, buf.element_addr(4), 16,
                    recv_flag=flag)
            yield from ctx.flag_wait(flag, 1)
            return buf.data[4:6].tolist()

        results = m.run(program)
        assert results[0] == [2.0, 2.0]
        assert results[1] == [1.0, 1.0]

    def test_put_stride_paper_parameters(self):
        m = make(2)

        def program(ctx):
            buf = ctx.alloc(16)
            flag = ctx.alloc_flag()
            buf.data[:] = np.arange(16) + 100 * ctx.pe
            yield from ctx.barrier()
            if ctx.pe == 0:
                # Every other double -> packed at destination.
                api.put_stride(ctx, 1, buf.addr, buf.addr, False,
                               None, flag,
                               send_item_size=8, send_cnt=4, send_skip=16,
                               recv_item_size=8, recv_cnt=4, recv_skip=8)
            else:
                yield from ctx.flag_wait(flag, 1)
                return buf.data[:4].tolist()

        assert m.run(program)[1] == [0.0, 2.0, 4.0, 6.0]

    def test_stride_mismatch_rejected(self):
        m = make(2)

        def program(ctx):
            buf = ctx.alloc(16)
            api.put_stride(ctx, 1, buf.addr, buf.addr, False, None, None,
                           8, 4, 16, 8, 3, 8)

        with pytest.raises(ValueError):
            m.run(program)

    def test_get_stride_mismatch_rejected(self):
        m = make(2)

        def program(ctx):
            buf = ctx.alloc(16)
            api.get_stride(ctx, 1, buf.addr, buf.addr, None, None,
                           8, 4, 16, 8, 5, 8)

        with pytest.raises(ValueError):
            m.run(program)

    def test_write_read_remote(self):
        m = make(2)

        def program(ctx):
            buf = ctx.alloc(8)
            flag = ctx.alloc_flag()
            buf.data[:] = float(ctx.pe)
            yield from ctx.barrier()
            if ctx.pe == 0:
                api.write_remote(ctx, 1, buf.element_addr(4), buf.addr, 8)
                yield from ctx.finish_puts()
            yield from ctx.barrier()
            api.read_remote(ctx, 1 - ctx.pe, buf.addr, buf.element_addr(6),
                            8, recv_flag=flag)
            yield from ctx.flag_wait(flag, 1)
            return float(buf.data[4]), float(buf.data[6])

        results = m.run(program)
        assert results[1][0] == 0.0   # written by PE0's writeRemote
        assert results[0][1] == 1.0   # read back from PE1


def paper_api_program(ctx):
    """A neighbour exchange spelled entirely with the paper's calls."""
    right = (ctx.pe + 1) % ctx.num_cells
    buf = ctx.alloc(16)
    flag = ctx.alloc_flag()
    buf.data[:] = np.arange(16) + 100 * ctx.pe
    yield from ctx.barrier()
    api.put(ctx, right, buf.element_addr(8), buf.addr, 16, recv_flag=flag)
    yield from ctx.flag_wait(flag, 1)
    api.get_stride(ctx, right, buf.addr, buf.element_addr(12), None, flag,
                   send_item_size=8, send_cnt=2, send_skip=16,
                   recv_item_size=8, recv_cnt=2, recv_skip=8)
    yield from ctx.flag_wait(flag, 2)
    api.write_remote(ctx, right, buf.element_addr(10), buf.addr, 8)
    yield from ctx.finish_puts()
    yield from ctx.barrier()
    return buf.data[8:14].tolist()


class TestEveryBackEndRunsThePaperApi:
    @pytest.mark.parametrize("cells", [4, 16, 64])
    def test_static_analysis_conforms_to_a_sanitized_run(self, cells):
        predicted = analyze_program(paper_api_program, cells)
        assert not predicted.deadlocked
        machine = Machine(MachineConfig(
            num_cells=cells, memory_per_cell=1 << 22, sanitize=True))
        results = machine.run(paper_api_program)
        assert trace_digest(predicted.trace) == trace_digest(machine.trace)
        assert predicted.results == dict(enumerate(results))


class TestAckTracker:
    def test_every_put_policy(self):
        tracker = AckTracker(Flag(0, 0), policy=AckPolicy.EVERY_PUT)
        assert tracker.record_put(1) is True
        assert tracker.record_put(2) is True
        assert tracker.expected_acks == 2
        assert tracker.destinations_to_ack() == []

    def test_last_per_dest_policy(self):
        tracker = AckTracker(Flag(0, 0), policy=AckPolicy.LAST_PER_DEST)
        for dst in (1, 2, 1, 1, 3):
            assert tracker.record_put(dst) is False
        assert tracker.destinations_to_ack() == [1, 2, 3]
        assert tracker.expected_acks == 3

    def test_none_policy(self):
        tracker = AckTracker(Flag(0, 0), policy=AckPolicy.NONE)
        assert tracker.record_put(1) is False
        assert tracker.destinations_to_ack() == []
        assert tracker.expected_acks == 0

    def test_phase_reset(self):
        tracker = AckTracker(Flag(0, 0), policy=AckPolicy.LAST_PER_DEST)
        tracker.record_put(1)
        tracker.destinations_to_ack()
        tracker.reset_phase()
        assert tracker.destinations_to_ack() == []

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            AckTracker(Flag(0, 0), policy="bogus")

    def test_last_per_dest_reduces_acks_dramatically(self):
        """Section 5.4: 'the number of get() operations can be decreased
        dramatically'."""
        every = AckTracker(Flag(0, 0), policy=AckPolicy.EVERY_PUT)
        last = AckTracker(Flag(0, 0), policy=AckPolicy.LAST_PER_DEST)
        for i in range(100):
            every.record_put(i % 4)
            last.record_put(i % 4)
        last.destinations_to_ack()
        assert every.expected_acks == 100
        assert last.expected_acks == 4


class TestMachineAckPolicies:
    def test_machine_with_last_per_dest(self):
        m = Machine(MachineConfig(num_cells=2, memory_per_cell=1 << 22),
                    ack_policy=AckPolicy.LAST_PER_DEST)

        def program(ctx):
            a = ctx.alloc(4)
            for _ in range(5):
                ctx.put(1 - ctx.pe, a, a, ack=True)
            yield from ctx.finish_puts()
            return ctx.flag_read(ctx.ack_flag)

        # Five puts but only one acknowledging GET per destination.
        assert m.run(program) == [1, 1]

    def test_machine_with_no_acks(self):
        m = Machine(MachineConfig(num_cells=2, memory_per_cell=1 << 22),
                    ack_policy=AckPolicy.NONE)

        def program(ctx):
            a = ctx.alloc(4)
            ctx.put(1 - ctx.pe, a, a, ack=True)
            yield from ctx.finish_puts()
            return ctx.flag_read(ctx.ack_flag)

        assert m.run(program) == [0, 0]
