"""Unit tests for the VPP Fortran run-time system (SPREAD MOVE,
OVERLAP FIX, MOVEWAIT, run-time cost accounting)."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.lang.runtime import VPPRuntime
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.events import EventKind
from tests.trace.views import events_for


def make(n=4):
    return Machine(MachineConfig(num_cells=n, memory_per_cell=1 << 22))


def fill_rows(g, n):
    for gi in range(g.lo, g.hi):
        g.block.data[g.to_local(gi), :n] = gi * 100 + np.arange(n)


class TestSpreadMove:
    def test_row_gather(self):
        m = make(4)

        def program(ctx):
            rt = VPPRuntime(ctx)
            b = rt.global_array((11, 11), dist_axis=0)
            fill_rows(b, 11)
            yield from ctx.barrier()
            a = ctx.alloc(11)
            rt.spread_move_row(a, b, 6)
            yield from rt.movewait()
            return a.data[:11].tolist()

        for result in m.run(program):
            assert result == (600 + np.arange(11)).tolist()

    def test_col_gather_strided(self):
        m = make(4)

        def program(ctx):
            rt = VPPRuntime(ctx, use_stride=True)
            b = rt.global_array((11, 11), dist_axis=0)
            fill_rows(b, 11)
            yield from ctx.barrier()
            a = ctx.alloc(11)
            rt.spread_move_col(a, b, 4)
            yield from rt.movewait()
            return a.data[:11].tolist()

        for result in m.run(program):
            assert result == (np.arange(11) * 100 + 4).tolist()

    def test_col_gather_elementwise_same_answer(self):
        results = {}
        for use_stride in (True, False):
            m = make(4)

            def program(ctx, use_stride=use_stride):
                rt = VPPRuntime(ctx, use_stride=use_stride)
                b = rt.global_array((9, 9), dist_axis=0)
                fill_rows(b, 9)
                yield from ctx.barrier()
                a = ctx.alloc(9)
                rt.spread_move_col(a, b, 2)
                yield from rt.movewait()
                return a.data[:9].tolist()

            results[use_stride] = m.run(program)[0]
            stats_kind = EventKind.GET
            gets = m.trace.count(stats_kind)
            results[(use_stride, "gets")] = gets
        assert results[True] == results[False]
        # Element-wise mode needs far more messages.
        assert results[(False, "gets")] > results[(True, "gets")]

    def test_block_gather_spanning_owners(self):
        m = make(4)

        def program(ctx):
            rt = VPPRuntime(ctx)
            b = rt.global_array(13)
            b.interior()[:] = np.arange(b.lo, b.hi)
            yield from ctx.barrier()
            a = ctx.alloc(13)
            rt.spread_move_block(a, b, 2, 9)
            yield from rt.movewait()
            return a.data[:9].tolist()

        for result in m.run(program):
            assert result == list(range(2, 11))

    def test_write_move_block(self):
        m = make(4)

        def program(ctx):
            rt = VPPRuntime(ctx)
            b = rt.global_array(12)
            src = ctx.alloc(12)
            src.data[:] = float(ctx.pe)
            yield from ctx.barrier()
            if ctx.pe == 0:
                rt.write_move_block(src, b, 3, 7)
            yield from rt.movewait()
            return b.interior().copy()

        results = m.run(program)
        full = np.concatenate(results)
        assert full[3:10].tolist() == [0.0] * 7
        assert full[0] == 0.0 and full[11] == 0.0

    def test_wrong_shapes_rejected(self):
        m = make(2)

        def program(ctx):
            rt = VPPRuntime(ctx)
            b = rt.global_array((4, 4), dist_axis=1)
            a = ctx.alloc(4)
            rt.spread_move_row(a, b, 0)

        with pytest.raises(ConfigurationError):
            m.run(program)

    def test_destination_too_small_rejected(self):
        m = make(2)

        def program(ctx):
            rt = VPPRuntime(ctx)
            b = rt.global_array((6, 6), dist_axis=0)
            a = ctx.alloc(3)
            rt.spread_move_row(a, b, 0)

        with pytest.raises(ConfigurationError):
            m.run(program)


class TestOverlapFix:
    @pytest.mark.parametrize("dist_axis", [0, 1])
    def test_halo_refresh(self, dist_axis):
        m = make(4)

        def program(ctx):
            rt = VPPRuntime(ctx)
            g = rt.global_array((9, 9), dist_axis=dist_axis, overlap=1)
            g.interior()[:] = float(ctx.pe + 1)
            yield from ctx.barrier()
            rt.overlap_fix(g)
            yield from rt.movewait()
            # Check the halo on the "low" side holds the left neighbour's
            # value.
            if g.lo > 0:
                if dist_axis == 0:
                    return float(g.block.data[0, 0])
                return float(g.block.data[0, 0])
            return None

        results = m.run(program)
        assert results[1:] == [1.0, 2.0, 3.0]

    def test_1d_overlap(self):
        m = make(3)

        def program(ctx):
            rt = VPPRuntime(ctx)
            g = rt.global_array(9, overlap=1)
            g.interior()[:] = float(ctx.pe * 10)
            yield from ctx.barrier()
            rt.overlap_fix(g)
            yield from rt.movewait()
            lo = float(g.block.data[0]) if g.lo > 0 else None
            hi = (float(g.block.data[g.to_local(g.hi - 1) + 1])
                  if g.hi < 9 else None)
            return lo, hi

        results = m.run(program)
        assert results[0] == (None, 10.0)
        assert results[1] == (0.0, 20.0)
        assert results[2] == (10.0, None)

    def test_without_overlap_rejected(self):
        m = make(2)

        def program(ctx):
            rt = VPPRuntime(ctx)
            g = rt.global_array((4, 4))
            rt.overlap_fix(g)

        with pytest.raises(ConfigurationError):
            m.run(program)

    def test_mixed_mode_puts_and_gets(self):
        m = make(4)

        def program(ctx):
            rt = VPPRuntime(ctx)
            g = rt.global_array((6, 12), dist_axis=1, overlap=1)
            g.interior()[:] = float(ctx.pe)
            yield from ctx.barrier()
            rt.overlap_fix_mixed(g)
            yield from rt.movewait()
            left_halo = float(g.block.data[0, 0]) if g.lo > 0 else None
            right_halo = (float(g.block.data[0, g.to_local(g.hi)])
                          if g.hi < 12 else None)
            return left_halo, right_halo

        results = m.run(program)
        assert results[1] == (0.0, 2.0)
        stats_puts = m.trace.count(EventKind.PUT)
        stats_gets = sum(
            1 for pe in range(4) for ev in events_for(m.trace, pe)
            if ev.kind is EventKind.GET and not ev.is_ack)
        assert stats_puts == stats_gets == 3   # one boundary pair each

    def test_mixed_mode_needs_axis1(self):
        m = make(2)

        def program(ctx):
            rt = VPPRuntime(ctx)
            g = rt.global_array((4, 8), dist_axis=0, overlap=1)
            rt.overlap_fix_mixed(g)

        with pytest.raises(ConfigurationError):
            m.run(program)


class TestCostAccounting:
    def test_rtsys_charged_per_call_and_message(self):
        m = make(2)

        def program(ctx):
            rt = VPPRuntime(ctx, call_us=10.0, per_msg_us=2.0)
            b = rt.global_array((4, 4), dist_axis=0)
            a = ctx.alloc(4)
            rt.spread_move_row(a, b, 3 if ctx.pe == 0 else 0)
            yield from rt.movewait()

        m.run(program)
        work = sum(ev.work for ev in events_for(m.trace, 0)
                   if ev.kind is EventKind.RTSYS)
        # One remote row gather: call (10) + 1 message (2) + movewait (10).
        assert work == pytest.approx(22.0)

    def test_local_moves_charge_no_messages(self):
        m = make(2)

        def program(ctx):
            rt = VPPRuntime(ctx, call_us=10.0, per_msg_us=2.0)
            b = rt.global_array((4, 4), dist_axis=0)
            a = ctx.alloc(4)
            row = 0 if b.owns(0) else 2
            rt.spread_move_row(a, b, row)
            return None

        m.run(program)
        work = sum(ev.work for ev in events_for(m.trace, 0)
                   if ev.kind is EventKind.RTSYS)
        assert work == pytest.approx(10.0)
