"""Unit tests for the happens-before reconstruction: barrier and flag
edges, collective mismatch detection, and flag deadlocks."""

import pytest

from repro.core.errors import DeadlockError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.events import EventKind
from repro.check.hb import build_happens_before, hb_report


def run(program, cells, expect_deadlock=False):
    machine = Machine(MachineConfig(
        num_cells=cells, memory_per_cell=1 << 20, sanitize=True))
    if expect_deadlock:
        with pytest.raises(DeadlockError):
            machine.run(program)
    else:
        machine.run(program)
    return machine.trace


def keys_of_kind(trace, kind):
    return [
        (pe, i)
        for pe in range(trace.num_pes)
        for i, ev in enumerate(trace.events_for(pe))
        if ev.kind is kind
    ]


class TestBarrierEdges:
    def test_barrier_orders_across_cells(self):
        def program(ctx):
            ctx.compute(1.0)
            yield from ctx.barrier()
            ctx.compute(1.0)

        trace = run(program, 3)
        hb = build_happens_before(trace)
        before = keys_of_kind(trace, EventKind.COMPUTE)
        # Each pe: compute at index 0, barrier at 1, compute at 2.
        for pe_a in range(3):
            for pe_b in range(3):
                assert hb.happens_before((pe_a, 0), (pe_b, 2))

    def test_no_order_without_sync(self):
        def program(ctx):
            ctx.compute(1.0)
            if False:
                yield

        hb = build_happens_before(run(program, 2))
        assert not hb.happens_before((0, 0), (1, 0))
        assert not hb.happens_before((1, 0), (0, 0))

    def test_program_order_always_holds(self):
        def program(ctx):
            ctx.compute(1.0)
            ctx.compute(1.0)
            if False:
                yield

        hb = build_happens_before(run(program, 1))
        assert hb.happens_before((0, 0), (0, 1))
        assert not hb.happens_before((0, 1), (0, 0))


class TestFlagEdges:
    def test_flag_wait_orders_put_before_reader(self):
        def program(ctx):
            buf = ctx.alloc(8)
            src = ctx.alloc(8)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, buf, src, recv_flag=flag)
                ctx.compute(1.0)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 1)
                ctx.compute(1.0)

        trace = run(program, 2)
        hb = build_happens_before(trace)
        puts = keys_of_kind(trace, EventKind.PUT)
        waits = keys_of_kind(trace, EventKind.FLAG_WAIT)
        assert len(puts) == 1 and len(waits) == 1
        assert hb.happens_before(puts[0], waits[0])
        # The PUT orders before everything after the wait on pe 0 ...
        pe0_compute = [k for k in keys_of_kind(trace, EventKind.COMPUTE)
                       if k[0] == 0]
        assert hb.happens_before(puts[0], pe0_compute[0])
        # ... but the waiter is NOT ordered before the sender's later
        # work (one-sided: only the flag edge exists).
        pe1_compute = [k for k in keys_of_kind(trace, EventKind.COMPUTE)
                       if k[0] == 1]
        assert not hb.happens_before(waits[0], pe1_compute[0])


class TestDiagnostics:
    def test_flag_deadlock_reported(self):
        def program(ctx):
            buf = ctx.alloc(8)
            src = ctx.alloc(8)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, buf, src, recv_flag=flag)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 2)

        trace = run(program, 2, expect_deadlock=True)
        _, report = hb_report(trace, "t")
        assert "FLAG-DEADLOCK" in report.codes()

    def test_barrier_mismatch_reported(self):
        def program(ctx):
            yield from ctx.barrier()
            if ctx.pe != 0:
                yield from ctx.barrier()

        trace = run(program, 3, expect_deadlock=True)
        _, report = hb_report(trace, "t")
        assert "BARRIER-MISMATCH" in report.codes()
        [diag] = [d for d in report.diagnostics
                  if d.code == "BARRIER-MISMATCH"]
        assert "cells [0]" in diag.message

    def test_reduction_mismatch_on_kind_mix(self):
        import numpy as np

        def program(ctx):
            if ctx.pe == 0:
                yield from ctx.gop(1.0)
            else:
                yield from ctx.vgop(np.ones(4))

        trace = run(program, 2)
        _, report = hb_report(trace, "t")
        assert "REDUCTION-MISMATCH" in report.codes()

    def test_clean_program_clean_report(self):
        def program(ctx):
            yield from ctx.barrier()
            total = yield from ctx.gop(float(ctx.pe))
            yield from ctx.barrier()
            return total

        _, report = hb_report(run(program, 4), "t")
        assert report.clean


class TestIncrementBookkeeping:
    def test_covering_wait_found(self):
        def program(ctx):
            buf = ctx.alloc(8)
            src = ctx.alloc(8)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, buf, src, recv_flag=flag)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 1)

        trace = run(program, 2)
        hb = build_happens_before(trace)
        [put] = keys_of_kind(trace, EventKind.PUT)
        ev = trace.events_for(put[0])[put[1]]
        k = hb.increment_index(ev.recv_flag, put)
        wait = hb.covering_wait(ev.recv_flag, k)
        assert wait is not None and wait[0] == 0

    def test_unsatisfied_wait_is_not_covering(self):
        def program(ctx):
            buf = ctx.alloc(8)
            src = ctx.alloc(8)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, buf, src, recv_flag=flag)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 5)

        trace = run(program, 2, expect_deadlock=True)
        hb = build_happens_before(trace)
        [put] = keys_of_kind(trace, EventKind.PUT)
        ev = trace.events_for(put[0])[put[1]]
        k = hb.increment_index(ev.recv_flag, put)
        assert hb.covering_wait(ev.recv_flag, k) is None
