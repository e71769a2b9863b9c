"""Trace conformance: recorded executions vs the static graph."""

from repro.bench.grid import BenchSpec
from repro.check.comm import analyze_program, static_params
from repro.check.conform import _event_key, conform_app, conform_trace
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine


def recorded_trace(app, num_cells):
    _, params = static_params(app)
    spec = BenchSpec(app=app, num_cells=num_cells, params=dict(params))
    run = spec.run(MachineConfig(sanitize=True))
    return run.trace


class TestConformTrace:
    def test_matching_trace_is_clean(self):
        program, params = static_params("MatMul")
        run = analyze_program(program, 4, params)
        trace = recorded_trace("MatMul", 4)
        assert conform_trace(run, trace) == []

    def test_wrong_program_is_flagged(self):
        # A RingShift recording is not a linearization of the MatMul
        # graph: per-cell sequences and aggregate totals both disagree.
        program, params = static_params("MatMul")
        run = analyze_program(program, 4, params)
        trace = recorded_trace("RingShift", 4)
        diags = conform_trace(run, trace)
        assert diags
        assert {d.code for d in diags} == {"COMM-NONCONFORM"}

    def test_wrong_cell_count_is_flagged(self):
        program, params = static_params("MatMul")
        run = analyze_program(program, 8, params)
        trace = recorded_trace("MatMul", 4)
        [diag] = conform_trace(run, trace)
        assert diag.code == "COMM-NONCONFORM"
        assert "4 cells" in diag.message

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
        for pe in range(4):
            assert [_event_key(ev, predicted)
                    for ev in predicted.events_for(pe)] == \
                [_event_key(ev, machine.trace)
                 for ev in machine.trace.events_for(pe)]


class TestConformApp:
    def test_matmul_conforms_with_closed_forms(self, tmp_path):
        report = conform_app("MatMul", scales=(4, 16),
                             cache_dir=tmp_path)
        assert report.clean, report.render()
        # PUT count/bytes and two sync-node forms verify at each P.
        assert report.stats["p4_closed_forms_verified"] >= 6
        assert report.stats["p16_closed_forms_verified"] >= 6
        assert any("PUT: count = P^2 - P" in n for n in report.notes)

    def test_cache_round_trip(self, tmp_path):
        first = conform_app("RingShift", scales=(4,),
                            cache_dir=tmp_path)
        second = conform_app("RingShift", scales=(4,),
                             cache_dir=tmp_path)
        assert first.clean and second.clean
        assert first.stats == second.stats
