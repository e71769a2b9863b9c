"""Tests for the VPP Fortran directive front-end (List 1)."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.lang.directives import (
    MoveWait,
    SpreadMove,
    execute_fragment,
    parse_fragment,
)
from repro.lang.runtime import VPPRuntime
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.events import EventKind
from tests.trace.views import events_for

LIST1 = """
!XOCL SPREAD MOVE
      DO 200 J=1,M
        A(J)=B(J,K)
200   CONTINUE
!XOCL END SPREAD (X)
!XOCL MOVEWAIT (X)
"""

LIST1_STRIDE = LIST1.replace("B(J,K)", "B(K,J)")


def make(n=4):
    return Machine(MachineConfig(num_cells=n, memory_per_cell=1 << 22))


class TestParsing:
    def test_list1_verbatim(self):
        fragment = parse_fragment(LIST1)
        assert len(fragment.statements) == 2
        spread, wait = fragment.statements
        assert isinstance(spread, SpreadMove)
        assert isinstance(wait, MoveWait)
        assert spread.loop_var == "J"
        assert (spread.lo, spread.hi) == ("1", "M")
        assert spread.dst == "A" and spread.src == "B"
        assert spread.src_subscripts == ("J", "K")
        assert spread.tag == wait.tag == "X"

    def test_tags_collected(self):
        assert parse_fragment(LIST1).tags == {"X"}

    def test_mismatched_do_label_rejected(self):
        bad = LIST1.replace("200   CONTINUE", "300   CONTINUE")
        with pytest.raises(ConfigurationError):
            parse_fragment(bad)

    def test_unawaited_tag_rejected(self):
        bad = "\n".join(LIST1.splitlines()[:-1])   # drop MOVEWAIT
        with pytest.raises(ConfigurationError):
            parse_fragment(bad)

    def test_movewait_without_spread_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_fragment("!XOCL MOVEWAIT (X)\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_fragment("!XOCL BROADCAST\n")

    def test_untagged_end_spread_rejected(self):
        bad = LIST1.replace("END SPREAD (X)", "END SPREAD")
        with pytest.raises(ConfigurationError):
            parse_fragment(bad)

    def test_destination_must_use_loop_var(self):
        bad = LIST1.replace("A(J)=B(J,K)", "A(K)=B(J,K)")
        with pytest.raises(ConfigurationError):
            parse_fragment(bad)

    def test_non_directive_line_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_fragment("CALL FOO()\n")


class TestExecution:
    M, K = 13, 4   # Fortran 1-based: column/row index K selects index 3

    def _run(self, source: str, use_stride: bool = True):
        machine = make(4)
        M, K = self.M, self.K

        def program(ctx):
            rt = VPPRuntime(ctx, use_stride=use_stride)
            # Fortran B(M, M) held transposed: numpy rows are Fortran's
            # second subscript.
            b = rt.global_array((M, M), dist_axis=0)
            for g in range(b.lo, b.hi):
                b.block.data[b.to_local(g), :M] = 100 * g + np.arange(M)
            yield from ctx.barrier()
            a = ctx.alloc(M)
            fragment = parse_fragment(source)
            yield from execute_fragment(rt, fragment,
                                        arrays={"A": a, "B": b},
                                        scalars={"M": M, "K": K})
            return a.data[:M].copy()

        return machine, machine.run(program)

    def test_list1_contiguous_form(self):
        """A(J)=B(J,K): numpy row K-1, one contiguous GET per owner."""
        machine, results = self._run(LIST1)
        expected = 100 * (self.K - 1) + np.arange(self.M)
        for result in results:
            assert np.array_equal(result, expected)
        assert machine.trace.count(EventKind.GET) > 0
        stride_gets = sum(
            1 for pe in range(4) for ev in events_for(machine.trace, pe)
            if ev.kind is EventKind.GET and ev.stride)
        assert stride_gets == 0

    def test_list1_stride_form(self):
        """A(J)=B(K,J): numpy column K-1, strided GETS per owner."""
        machine, results = self._run(LIST1_STRIDE)
        expected = 100 * np.arange(self.M) + (self.K - 1)
        for result in results:
            assert np.array_equal(result, expected)
        stride_gets = sum(
            1 for pe in range(4) for ev in events_for(machine.trace, pe)
            if ev.kind is EventKind.GET and ev.stride)
        assert stride_gets > 0

    def test_stride_form_without_hardware_stride_explodes(self):
        m1, _ = self._run(LIST1_STRIDE, use_stride=True)
        m2, _ = self._run(LIST1_STRIDE, use_stride=False)
        gets1 = m1.trace.count(EventKind.GET)
        gets2 = m2.trace.count(EventKind.GET)
        assert gets2 > 3 * gets1

    def test_one_dimensional_gather(self):
        machine = make(4)
        source = ("!XOCL SPREAD MOVE\n"
                  "      DO 10 J=1,M\n"
                  "        A(J)=B(J)\n"
                  "10    CONTINUE\n"
                  "!XOCL END SPREAD (Y)\n"
                  "!XOCL MOVEWAIT (Y)\n")

        def program(ctx):
            rt = VPPRuntime(ctx)
            b = rt.global_array(12)
            b.interior()[:] = np.arange(b.lo, b.hi) * 2.0
            yield from ctx.barrier()
            a = ctx.alloc(12)
            yield from execute_fragment(rt, parse_fragment(source),
                                        arrays={"A": a, "B": b},
                                        scalars={"M": 12})
            return a.data.copy()

        for result in machine.run(program):
            assert np.array_equal(result, np.arange(12) * 2.0)

    def test_missing_array_rejected(self):
        machine = make(2)

        def program(ctx):
            rt = VPPRuntime(ctx)
            a = ctx.alloc(4)
            yield from execute_fragment(rt, parse_fragment(LIST1),
                                        arrays={"A": a},
                                        scalars={"M": 4, "K": 1})

        with pytest.raises(ConfigurationError):
            machine.run(program)

    def test_unbound_scalar_rejected(self):
        machine = make(2)

        def program(ctx):
            rt = VPPRuntime(ctx)
            b = rt.global_array((4, 4), dist_axis=0)
            a = ctx.alloc(4)
            yield from execute_fragment(rt, parse_fragment(LIST1),
                                        arrays={"A": a, "B": b},
                                        scalars={"M": 4})   # K missing

        with pytest.raises(ConfigurationError):
            machine.run(program)
