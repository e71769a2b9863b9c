"""Unit coverage for LocalArray, Group, and small CellContext helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CommunicationError, ConfigurationError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.program import Group


def make(n=4):
    return Machine(MachineConfig(num_cells=n, memory_per_cell=1 << 21))


class TestLocalArray:
    def test_shape_dtype_size(self):
        m = make(1)

        def program(ctx):
            a = ctx.alloc((3, 5), np.int32)
            return a.shape, a.dtype, a.size, a.itemsize, a.nbytes

        shape, dtype, size, itemsize, nbytes = m.run(program)[0]
        assert shape == (3, 5)
        assert dtype == np.int32
        assert (size, itemsize, nbytes) == (15, 4, 60)

    def test_element_addr(self):
        m = make(1)

        def program(ctx):
            a = ctx.alloc(8)
            return a.addr, a.element_addr(3)

        base, third = m.run(program)[0]
        assert third == base + 24

    def test_element_addr_bounds(self):
        m = make(1)

        def program(ctx):
            a = ctx.alloc(8)
            a.element_addr(9)

        with pytest.raises(ConfigurationError):
            m.run(program)

    def test_item_access_passthrough(self):
        m = make(1)

        def program(ctx):
            a = ctx.alloc(4)
            a[0] = 1.5
            a[1:3] = 2.5
            return float(a[0]), a[1:3].tolist(), len(a)

        first, middle, n = m.run(program)[0]
        assert (first, middle, n) == (1.5, [2.5, 2.5], 4)

    def test_end_offset_allowed_for_empty_transfer(self):
        m = make(1)

        def program(ctx):
            a = ctx.alloc(8)
            return a.element_addr(8)   # one-past-the-end, size-0 transfers

        assert m.run(program)[0] > 0


class TestGroup:
    def test_rank_of(self):
        g = Group(gid=1, members=(2, 5, 7))
        assert g.rank_of(5) == 1
        assert g.size == 3
        assert 5 in g and 3 not in g

    def test_rank_of_nonmember(self):
        g = Group(gid=1, members=(0, 1))
        with pytest.raises(CommunicationError):
            g.rank_of(9)

    def test_make_group_interning(self):
        m = make(4)

        def program(ctx):
            a = ctx.make_group([2, 0])
            b = ctx.make_group((0, 2))
            return a.gid, b.gid, a.members

        gid_a, gid_b, members = m.run(program)[0]
        assert gid_a == gid_b
        assert members == (0, 2)

    def test_world_group(self):
        m = make(3)

        def program(ctx):
            return ctx.world.members, ctx.world.gid

        assert m.run(program)[0] == ((0, 1, 2), 0)

    @given(members=st.one_of(
               st.sets(st.integers(0, 4095), max_size=64),
               st.just(range(4096))).map(lambda m: tuple(sorted(m))),
           probes=st.lists(st.integers(-2, 4097), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_membership_and_rank_match_a_scan(self, members, probes):
        # Group bisects its sorted members; tuple.index / in are the scan.
        g = Group(gid=1, members=members)
        for pe in (*probes, *members[:3], *members[-3:]):
            assert (pe in g) == (pe in members)
            if pe in members:
                assert g.rank_of(pe) == members.index(pe)
            else:
                with pytest.raises(CommunicationError, match=str(pe)):
                    g.rank_of(pe)


class TestContextHelpers:
    def test_flag_read_and_clear(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(4)
            flag = ctx.alloc_flag()
            ctx.put(1 - ctx.pe, a, a, recv_flag=flag)
            yield from ctx.flag_wait(flag, 1)
            before = ctx.flag_read(flag)
            ctx.flag_clear(flag)
            return before, ctx.flag_read(flag)

        for before, after in m.run(program):
            assert (before, after) == (1, 0)

    def test_num_cells(self):
        m = make(3)
        assert m.run(lambda ctx: ctx.num_cells) == [3, 3, 3]

    def test_machine_results_preserved_per_cell(self):
        m = make(4)
        assert m.run(lambda ctx: ctx.pe ** 2) == [0, 1, 4, 9]
