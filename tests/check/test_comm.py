"""The static communication-graph analyzer: concolic execution,
scale-generic findings, closed-form extraction, and the fixture gate."""

import inspect
import textwrap

import pytest

from repro.check.comm import (
    CommGraph,
    analyze_app,
    analyze_program,
    check_program,
    kind_totals,
    run_findings,
)
from repro.check.lint import lint_source
from repro.check.runner import check_static_apps, check_static_buggy
from repro.core.stride import ElementStride
from repro.faults.chaos import trace_digest
from repro.lang.runtime import VPPRuntime
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine

MEM = 1 << 20


def findings(program, p, params=None):
    run = analyze_program(program, p, params, memory_per_cell=MEM)
    return run, run_findings(run, "test")


def ring_program(ctx):
    dest = ctx.alloc(8)
    src = ctx.alloc(8)
    src.data[:] = float(ctx.pe)
    flag = ctx.alloc_flag()
    yield from ctx.barrier()
    right = (ctx.pe + 1) % ctx.num_cells
    ctx.put(right, dest, src, recv_flag=flag)
    yield from ctx.flag_wait(flag, 1)
    yield from ctx.barrier()


class TestSymbolicExecution:
    def test_clean_ring_has_no_findings(self):
        run, found = findings(ring_program, 8)
        assert found == []
        assert not run.deadlocked
        assert run.results  # every cell ran to completion

    def test_ring_data_actually_moves(self):
        # One 8-double message per cell (alloc counts elements).
        run, _ = findings(ring_program, 4)
        totals = kind_totals(run.trace)
        assert totals["PUT"] == (4, 4 * 64)

    def test_deadlock_is_recorded_not_raised(self):
        def stuck(ctx):
            flag = ctx.alloc_flag()
            yield from ctx.flag_wait(flag, 1)

        run, found = findings(stuck, 4)
        assert run.deadlocked
        assert {d.code for d in found} == {"COMM-UNMATCHED-FLAG"}

    def test_plain_function_program(self):
        # EP-style programs are plain functions, not generators.
        def local_only(ctx):
            buf = ctx.alloc(8)
            buf.data[:] = 1.0
            return float(buf.data.sum())

        run, found = findings(local_only, 4)
        assert found == []
        assert run.results == {pe: 8.0 for pe in range(4)}


def write_through_program(ctx):
    """Every cell binds its right neighbour's table as write-through
    pages, writes one element through and refreshes after a barrier."""
    table = ctx.alloc(64)
    table.data[:] = float(ctx.pe)
    yield from ctx.barrier()
    pages = yield from ctx.wt_bind((ctx.pe + 1) % ctx.num_cells, table)
    pages.write(ctx.pe % 64, -1.0)
    yield from ctx.barrier()
    yield from ctx.wt_refresh(pages)
    yield from ctx.barrier()
    return float(pages.data.sum())


class TestProductionMachine:
    def test_write_through_programs_are_analyzed(self):
        report = check_program(write_through_program, (4, 16),
                               memory_per_cell=MEM)
        assert report.clean, report.render()
        assert report.stats["static_deadlocks"] == 0
        run = analyze_program(write_through_program, 4,
                              memory_per_cell=MEM)
        assert run.results == {pe: 63 * float((pe + 1) % 4) - 1.0
                               for pe in range(4)}

    def test_the_serial_engine_is_pinned(self, monkeypatch):
        expected = check_program(ring_program, (4, 16),
                                 memory_per_cell=MEM).to_dict()
        monkeypatch.setenv("REPRO_MACHINE_SHARDS", "2")
        run = analyze_program(ring_program, 4, memory_per_cell=MEM)
        assert run.machine.config.shards == 1
        assert run.machine.engine == {"loop": "wake-set", "fallback": None}
        assert check_program(ring_program, (4, 16),
                             memory_per_cell=MEM).to_dict() == expected

    def test_addresses_agree_after_a_remote_store(self):
        # The first remote store carves the staging buffer out of every
        # cell's symmetric heap; both machines take it from the same
        # allocator, so a later array sits at the same address in both.
        def program(ctx):
            word = ctx.alloc(1)
            yield from ctx.barrier()
            ctx.remote_store_word((ctx.pe + 1) % ctx.num_cells, word, 0, 1.0)
            yield from ctx.barrier()
            late = ctx.alloc(8)
            flag = ctx.alloc_flag()
            ctx.put((ctx.pe + 1) % ctx.num_cells, late, late, recv_flag=flag)
            yield from ctx.flag_wait(flag, 1)

        predicted = analyze_program(program, 4).trace
        machine = Machine(MachineConfig(
            num_cells=4, memory_per_cell=1 << 22, sanitize=True))
        machine.run(program)
        assert trace_digest(predicted) == trace_digest(machine.trace)

    def test_a_wedge_keeps_what_each_cell_waits_for(self):
        def program(ctx):
            if ctx.pe == 0:
                yield from ctx.recv(src=1, context=7)
            yield from ctx.barrier()

        run, found = findings(program, 4)
        assert run.deadlocked and run.results == {}
        assert run.machine.blocked[0] == ("recv", 1, 7)
        assert {state[0] for pe, state in run.machine.blocked.items()
                if pe} == {"barrier"}
        assert any("RECEIVE from cell 1 (context=7)" in d.message
                   for d in found)


class TestScaleGenericFindings:
    def test_divergent_collectives(self):
        def program(ctx):
            yield from ctx.barrier()
            if ctx.pe != 0:
                yield from ctx.barrier()

        _, found = findings(program, 4)
        assert {d.code for d in found} == {"COMM-DIVERGENCE"}

    def test_overlapping_puts(self):
        def program(ctx):
            victim = ctx.alloc(8)
            src = ctx.alloc(8)
            src.data[:] = float(ctx.pe)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe:
                ctx.put(0, victim, src, recv_flag=flag)
            yield from ctx.barrier()

        _, found = findings(program, 4)
        assert "COMM-OVERLAP" in {d.code for d in found}

    def test_variable_stride_site(self):
        def program(ctx):
            dest = ctx.alloc(16)
            src = ctx.alloc(16)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            right = (ctx.pe + 1) % ctx.num_cells
            for skip in (2, 3):
                stride = ElementStride(1, 4, skip)
                ctx.put_stride(right, dest, src, stride, stride,
                               recv_flag=flag)
            yield from ctx.flag_wait(flag, 2)
            yield from ctx.barrier()

        _, found = findings(program, 4)
        [stride] = [d for d in found if d.code == "COMM-STRIDE"]
        assert "2 distinct byte skips [16, 24]" in stride.message

    def test_scale_dependent_bug_found_only_at_scale(self):
        def program(ctx):
            yield from ctx.barrier()
            if ctx.pe < 4:
                yield from ctx.gop(1.0)
            yield from ctx.barrier()

        _, at_4 = findings(program, 4)
        _, at_16 = findings(program, 16)
        assert at_4 == []
        assert "COMM-DIVERGENCE" in {d.code for d in at_16}

        report = check_program(program, (4, 16, 64),
                               memory_per_cell=MEM)
        [diag] = [d for d in report.diagnostics
                  if d.code == "COMM-DIVERGENCE"]
        assert "(at P=16, 64)" in diag.message


class TestCommGraph:
    def test_ring_closed_forms(self):
        graph = CommGraph("ring")
        for p in (4, 8, 16, 32, 64):
            graph.add_run(analyze_program(ring_program, p,
                                          memory_per_cell=MEM))
        count_form, bytes_form = graph.total_forms("PUT")
        assert count_form.exact and count_form.expression == "P"
        assert bytes_form.exact and bytes_form.expression == "64*P"

    def test_matmul_app_graph(self):
        report, graph, runs = analyze_app("MatMul")
        assert report.clean, report.render()
        count_form, bytes_form = graph.total_forms("PUT")
        # Every cell sends its A-panel to its right neighbour P-1 times:
        # P(P-1) messages moving (P-1) * n^2 doubles in total.
        assert count_form.expression == "P^2 - P"
        assert bytes_form.expression == "131072*P - 131072"
        summary = "\n".join(graph.summary())
        assert "partner (cellid+1) mod P" in summary
        assert 4 in runs and 64 in runs


class TestDrivers:
    def test_static_apps_driver_subset(self):
        [report] = check_static_apps(("PingPong",))
        assert report.subject == "static/PingPong"
        assert report.clean, report.render()
        assert report.stats["static_scales"] == 3

    def test_unknown_app_rejected(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            analyze_app("SUMMA")

    def test_buggy_fixture_gate(self):
        reports, all_caught = check_static_buggy()
        assert all_caught, "\n".join(r.render() for r in reports)
        # Every fixture carrying EXPECT_STATIC is in the gate.
        subjects = {r.subject for r in reports}
        assert "static/buggy/scale_dependent_barrier" in subjects
        assert len(subjects) >= 6


def static_codes(program, params=None):
    report = check_program(program, (4, 16, 64), params,
                           memory_per_cell=MEM)
    return report.codes()


def stride_ring(ctx, stride_of, rounds):
    """Every cell PUTs ``rounds`` stride transfers to its right
    neighbour, round ``i`` into its own slot with ``stride_of(i)``."""
    dest = ctx.alloc(16 * rounds)
    src = ctx.alloc(16)
    src.data[:] = float(ctx.pe)
    flag = ctx.alloc_flag()
    right = (ctx.pe + 1) % ctx.num_cells
    yield from ctx.barrier()
    for i in range(rounds):
        stride = stride_of(i)
        ctx.put_stride(right, dest, src, stride, stride,
                       dest_offset=16 * i, recv_flag=flag)
    yield from ctx.flag_wait(flag, rounds)
    yield from ctx.barrier()


class TestCellDependentCollectives:
    """The analyzer runs every cell, so a collective only some cells
    reach is a divergence it observes; branches every cell takes alike,
    grouped collectives and branches on reduction results are clean."""

    def test_barrier_under_pe_branch(self):
        def program(ctx):
            if ctx.pe != 0:
                yield from ctx.barrier()

        assert static_codes(program) == {"COMM-DIVERGENCE"}

    def test_branch_on_a_value_derived_from_pe(self):
        def program(ctx):
            row, col = divmod(ctx.pe, 4)
            if col == 0:
                yield from ctx.barrier()

        assert static_codes(program) == {"COMM-DIVERGENCE"}

    def test_grouped_collective_under_its_members_branch(self):
        def program(ctx):
            row, col = divmod(ctx.pe, 4)
            col_group = ctx.make_group(
                pe for pe in range(ctx.num_cells) if pe % 4 == 0)
            if col == 0:
                total = yield from ctx.gop(1.0, group=col_group)
                yield from ctx.barrier(col_group)
                assert total == len(col_group.members)
            yield from ctx.barrier()

        assert static_codes(program) == set()

    def test_branch_on_a_reduction_result(self):
        def program(ctx):
            r = float(ctx.pe + 1)
            rho = yield from ctx.gop(r * r)
            while rho > 1.0:
                r /= 2.0
                rho = yield from ctx.gop(r * r)
                yield from ctx.barrier()
            return rho

        assert static_codes(program) == set()

    def test_loop_every_cell_runs_alike(self):
        def program(ctx, iters):
            for it in range(iters):
                yield from ctx.barrier()

        assert static_codes(program, {"iters": 3}) == set()


class TestStrideDescriptors:
    """A stride that changes per iteration shows as several byte skips
    at one call site; a constant one, in a loop or not, is clean."""

    def test_stride_from_the_loop_variable(self):
        def program(ctx):
            yield from stride_ring(
                ctx, lambda i: ElementStride(1, 4, i + 1), 3)

        assert static_codes(program) == {"COMM-STRIDE"}

    def test_constant_stride_in_a_loop(self):
        def program(ctx, n):
            yield from stride_ring(ctx, lambda i: ElementStride(1, 4, n), 3)

        assert static_codes(program, {"n": 3}) == set()

    def test_stride_from_a_parameter_outside_a_loop(self):
        def program(ctx, i):
            yield from stride_ring(
                ctx, lambda _: ElementStride(1, 4, i + 1), 1)

        assert static_codes(program, {"i": 2}) == set()


def read_before_movewait(ctx):
    rt = VPPRuntime(ctx)
    g = rt.global_array((8 * ctx.num_cells,))
    mine = ctx.alloc(8)
    mine.data[:] = float(ctx.pe + 1)
    yield from ctx.barrier()
    right = (ctx.pe + 1) % ctx.num_cells
    rt.write_move_block(mine, g, 8 * right, 8)
    checksum = float(g.block.data.sum())
    yield from rt.movewait()
    return checksum


class TestCpuReadsStayWithTheLint:
    def test_read_before_movewait_is_invisible_to_the_analyzer(self):
        # Every cell writes only its right neighbour's block, so no two
        # transfers overlap; the early read of ``g`` is a CPU load, which
        # no run records.  Only the lint sees it.
        assert static_codes(read_before_movewait) == set()
        source = textwrap.dedent(inspect.getsource(read_before_movewait))
        assert [d.code for d in lint_source(source, "t.py")] == ["SPMD001"]
