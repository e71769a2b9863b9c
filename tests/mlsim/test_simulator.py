"""Integration tests: functional run -> trace -> three-model replay."""

import pytest

from repro.core.errors import SimulationError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.mlsim.breakdown import MLSimResult, PEBreakdown
from repro.mlsim.simulator import simulate, simulate_models


def ping_pong_machine(n=4, rounds=5, size=256):
    m = Machine(MachineConfig(num_cells=n, memory_per_cell=1 << 22))

    def program(ctx):
        a = ctx.alloc(size)
        b = ctx.alloc(size)
        flag = ctx.alloc_flag()
        a.data[:] = ctx.pe
        ctx.compute_flops(10000)
        right = (ctx.pe + 1) % ctx.num_cells
        for i in range(rounds):
            ctx.put(right, b, a, recv_flag=flag, ack=True)
            yield from ctx.flag_wait(flag, i + 1)
        yield from ctx.finish_puts()
        yield from ctx.barrier()

    m.run(program)
    return m


class TestSimulate:
    def test_all_models_complete(self):
        m = ping_pong_machine()
        cmp = simulate_models(m.trace)
        for res in (cmp.ap1000, cmp.ap1000_fast, cmp.ap1000_plus):
            assert res.elapsed_us > 0
            assert res.num_pes == 4

    def test_headline_ordering(self):
        """AP1000+ beats the software model, which beats the AP1000."""
        m = ping_pong_machine()
        cmp = simulate_models(m.trace)
        assert cmp.ap1000_plus.elapsed_us < cmp.ap1000_fast.elapsed_us
        assert cmp.ap1000_fast.elapsed_us < cmp.ap1000.elapsed_us

    def test_table2_row_speedups(self):
        m = ping_pong_machine()
        plus, fast = simulate_models(m.trace).table2_row()
        assert plus > fast > 1.0

    def test_replay_is_deterministic(self):
        m = ping_pong_machine()
        from repro.mlsim.params import ap1000_plus_params
        a = simulate(m.trace, ap1000_plus_params())
        b = simulate(m.trace, ap1000_plus_params())
        assert a.elapsed_us == b.elapsed_us
        assert a.mean_idle == b.mean_idle

    def test_figure8_normalization(self):
        m = ping_pong_machine()
        bars = simulate_models(m.trace).figure8_bars()
        assert bars["AP1000+"]["total"] == pytest.approx(100.0)
        assert bars["AP1000/SuperSPARC"]["total"] > 100.0

    def test_buckets_account_for_clock(self):
        m = ping_pong_machine()
        from repro.mlsim.params import ap1000_params
        res = simulate(m.trace, ap1000_params())
        for pe in res.per_pe:
            assert pe.accounted == pytest.approx(pe.clock, rel=1e-6)


class TestSerializationInterop:
    def test_saved_trace_replays_identically(self, tmp_path):
        import io

        from repro.trace.io import load_trace, save_trace
        from repro.mlsim.params import ap1000_plus_params

        m = ping_pong_machine()
        direct = simulate(m.trace, ap1000_plus_params())
        stream = io.BytesIO()
        save_trace(m.trace, stream)
        stream.seek(0)
        loaded = load_trace(stream)
        again = io.BytesIO()
        save_trace(loaded, again)
        assert again.getvalue() == stream.getvalue()
        replayed = simulate(loaded, ap1000_plus_params())
        assert replayed.elapsed_us == pytest.approx(direct.elapsed_us)


class TestResultTypes:
    def test_mean_breakdown(self):
        res = MLSimResult(model_name="x", per_pe=[
            PEBreakdown(execution=10, idle=10, clock=20),
            PEBreakdown(execution=30, idle=10, clock=40),
        ])
        assert res.mean_execution == 20.0
        assert res.elapsed_us == 40.0
        fractions = res.breakdown_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_speedup_of_empty_result_raises(self):
        """A zero-elapsed model has no defined speedup; the old behavior
        (returning inf) silently poisoned Table 2 renders downstream."""
        empty = MLSimResult(model_name="x")
        base = MLSimResult(model_name="y",
                           per_pe=[PEBreakdown(clock=10.0)])
        with pytest.raises(SimulationError, match="zero elapsed"):
            empty.speedup_over(base)

    def test_speedup_of_normal_result(self):
        fast = MLSimResult(model_name="x",
                           per_pe=[PEBreakdown(clock=5.0)])
        base = MLSimResult(model_name="y",
                           per_pe=[PEBreakdown(clock=10.0)])
        assert fast.speedup_over(base) == pytest.approx(2.0)
