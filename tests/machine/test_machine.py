"""Unit tests for the functional machine: allocation, scheduling,
deadlock detection, collectives, shared memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    CommunicationError,
    ConfigurationError,
    DeadlockError,
)
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.program import Group


def make(n=4):
    return Machine(MachineConfig(num_cells=n, memory_per_cell=1 << 22))


class TestAllocation:
    def test_symmetric_addresses(self):
        m = make(4)

        def program(ctx):
            a = ctx.alloc(16)
            b = ctx.alloc((4, 4), np.int32)
            return a.addr, b.addr

        results = m.run(program)
        assert len(set(results)) == 1 or all(r == results[0] for r in results)

    def test_alignment(self):
        m = make(2)

        def program(ctx):
            ctx.alloc(3, np.uint8)
            second = ctx.alloc(8)
            return second.addr

        addr = m.run(program)[0]
        assert addr % 64 == 0

    def test_arrays_live_in_cell_dram(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(8)
            a.data[:] = ctx.pe + 1
            return a.addr

        addr = m.run(program)[0]
        raw = m.hw_cells[1].memory.view(addr, 64).view(np.float64)
        assert raw[0] == 2.0

    def test_out_of_memory(self):
        m = make(2)

        def program(ctx):
            ctx.alloc(1 << 23)   # larger than the 4 MB cell

        with pytest.raises(ConfigurationError):
            m.run(program)

    def test_scalar_shape(self):
        m = make(2)

        def program(ctx):
            return ctx.alloc((), np.float64).nbytes

        assert m.run(program)[0] == 8


class TestScheduling:
    def test_plain_function_programs(self):
        m = make(3)
        assert m.run(lambda ctx: ctx.pe * 2) == [0, 2, 4]

    def test_generator_return_values(self):
        m = make(3)

        def program(ctx):
            yield from ctx.barrier()
            return ctx.pe

        assert m.run(program) == [0, 1, 2]

    def test_deadlock_detected(self):
        m = make(2)

        def program(ctx):
            flag = ctx.alloc_flag()
            # Nobody ever increments this flag.
            yield from ctx.flag_wait(flag, 1)

        with pytest.raises(DeadlockError) as err:
            m.run(program)
        assert "blocked" in str(err.value)

    def test_partial_barrier_deadlock_reports_group(self):
        m = make(2)

        def program(ctx):
            if ctx.pe == 0:
                yield from ctx.barrier()

        with pytest.raises(DeadlockError) as err:
            m.run(program)
        assert "barrier" in str(err.value)

    def test_mixed_generator_and_plain(self):
        m = make(2)

        def program(ctx):
            if ctx.pe == 0:
                return "plain"

            def gen():
                yield from ctx.barrier(ctx.make_group([1]))
                return "gen"
            return gen()

        assert m.run(program) == ["plain", "gen"]


class TestBarriers:
    def test_world_barrier_uses_snet(self):
        m = make(4)

        def program(ctx):
            yield from ctx.barrier()
            yield from ctx.barrier()

        m.run(program)
        assert m.snet.episodes_completed == 2

    def test_group_barrier_independent(self):
        m = make(4)

        def program(ctx):
            group = ctx.make_group([0, 1])
            if ctx.pe in group:
                yield from ctx.barrier(group)
            return ctx.pe

        assert m.run(program) == [0, 1, 2, 3]
        assert m.snet.episodes_completed == 0

    def test_barrier_outside_group_rejected(self):
        m = make(2)

        def program(ctx):
            group = ctx.make_group([0])
            yield from ctx.barrier(group)

        with pytest.raises(CommunicationError):
            m.run(program)

    @given(data=st.data(),
           members=st.sets(st.integers(0, 7), min_size=1).map(sorted))
    @settings(max_examples=60, deadline=None)
    def test_release_on_exactly_the_last_arrival(self, data, members):
        m = make(8)
        world = len(members) == 8
        group = m.world_group if world else Group(5, tuple(members))
        for episode in range(2):
            order = data.draw(st.permutations(members))
            for count, pe in enumerate(order, start=1):
                generation = m.barrier_arrive(group, pe)
                assert generation == episode
                assert m.barrier_passed(group.gid, generation) == \
                    (count == len(order))
                if count < len(order):
                    with pytest.raises(CommunicationError):
                        m.barrier_arrive(group, pe)      # arrived twice
        assert m.snet.episodes_completed == (2 if world else 0)


class TestReductions:
    def test_scalar_ops(self):
        m = make(4)

        def program(ctx):
            s = yield from ctx.gop(float(ctx.pe + 1), op="sum")
            mx = yield from ctx.gop(float(ctx.pe), op="max")
            mn = yield from ctx.gop(float(ctx.pe), op="min")
            pr = yield from ctx.gop(2.0, op="prod")
            return s, mx, mn, pr

        for result in m.run(program):
            assert result == (10.0, 3.0, 0.0, 16.0)

    def test_vector_sum(self):
        m = make(4)

        def program(ctx):
            v = np.full(3, float(ctx.pe))
            out = yield from ctx.vgop(v)
            return out.tolist()

        for result in m.run(program):
            assert result == [6.0, 6.0, 6.0]

    def test_group_reduction(self):
        m = make(4)

        def program(ctx):
            group = ctx.make_group([1, 3])
            if ctx.pe in group:
                return (yield from ctx.gop(float(ctx.pe), group=group))
            return None

        results = m.run(program)
        assert results[1] == results[3] == 4.0
        assert results[0] is None

    def test_successive_reductions_do_not_mix(self):
        m = make(3)

        def program(ctx):
            a = yield from ctx.gop(1.0)
            b = yield from ctx.gop(10.0)
            return a, b

        for a, b in m.run(program):
            assert (a, b) == (3.0, 30.0)

    def test_deterministic_float_order(self):
        """Reduction combines contributions in member order, so every run
        gives bit-identical results."""
        m1, m2 = make(4), make(4)

        def program(ctx):
            return (yield from ctx.gop(0.1 * (ctx.pe + 1)))

        assert m1.run(program) == m2.run(program)


class TestSharedMemory:
    def test_remote_store_word(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(4)
            a.data[:] = 0.0
            yield from ctx.barrier()
            if ctx.pe == 0:
                ctx.remote_store_word(1, a, 2, 42.5)
            yield from ctx.barrier()
            return float(a.data[2])

        assert m.run(program) == [0.0, 42.5]

    def test_remote_load_word(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(4)
            a.data[:] = float(ctx.pe + 10)
            yield from ctx.barrier()
            other = ctx.remote_load_word(1 - ctx.pe, a, 0)
            return other

        assert m.run(program) == [11.0, 10.0]

    def test_oversized_remote_access_rejected(self):
        m = make(2)
        with pytest.raises(CommunicationError):
            m.remote_load(0, 1, 0, 1 << 20)
