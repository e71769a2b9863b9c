"""Application tests: every kernel verifies against its sequential
reference and produces the paper-shaped communication statistics.

Sizes here are small so the suite stays fast; the benchmarks run the
paper-scale configurations.
"""

import numpy as np
import pytest

from repro.apps import cg, ep, ft, matmul, scg, sp, tomcatv
from repro.core.errors import ConfigurationError, TraceBufferOverflowError
from repro.machine.config import MachineConfig
from repro.trace.events import EventKind
from tests.trace.views import events_for


class TestEP:
    def test_verified(self):
        run = ep.run(num_cells=8, log2_pairs=10)
        assert run.verified, run.checks

    def test_table3_row_is_all_zero(self):
        run = ep.run(num_cells=4, log2_pairs=8)
        stats = run.statistics
        assert stats.as_row()[1:] == (0.0,) * 9

    def test_lcg_jump_equals_stepping(self):
        seed = ep.SEED
        stepped = seed
        for _ in range(17):
            stepped = (stepped * ep.LCG_A) % ep.LCG_MOD
        assert ep.lcg_jump(seed, 17) == stepped

    def test_partition_independent_of_cell_count(self):
        a = ep.run(num_cells=2, log2_pairs=9)
        b = ep.run(num_cells=8, log2_pairs=9)
        bins_a = sum(r[0] for r in a.results)
        bins_b = sum(r[0] for r in b.results)
        assert np.array_equal(bins_a, bins_b)

    def test_uneven_pair_counts(self):
        run = ep.run(num_cells=3, log2_pairs=8)
        assert run.verified


class TestCG:
    def test_verified_small(self):
        run = cg.run(num_cells=4, n=120, outer=2, inner=6)
        assert run.verified, run.checks

    def test_vgop_dominates_stats(self):
        run = cg.run(num_cells=4, n=120, outer=2, inner=6)
        stats = run.statistics
        assert stats.vgop_per_pe == 2 * (6 + 1)   # inner + residual
        assert stats.put_per_pe == 0.0

    def test_vector_gop_size_is_full_vector(self):
        run = cg.run(num_cells=4, n=120, outer=1, inner=2)
        sizes = {ev.size for pe in range(4)
                 for ev in events_for(run.trace, pe)
                 if ev.kind is EventKind.VGOP}
        assert sizes == {120 * 8}

    def test_matrix_properties(self):
        a = cg.make_matrix(200)
        assert np.allclose(a, a.T)
        # Strictly diagonally dominant -> positive definite.
        off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        assert (np.diag(a) > off).all()

    def test_paper_size_nonzeros(self):
        a = cg.make_matrix(1400)
        nnz = np.count_nonzero(a)
        assert abs(nnz - 78184) / 78184 < 0.05


class TestSCG:
    def test_verified(self):
        run = scg.run(num_cells=4, m=24)
        assert run.verified, run.checks

    def test_single_barrier(self):
        run = scg.run(num_cells=4, m=24)
        assert run.statistics.sync_per_pe == 1.0

    def test_put_and_send_per_iteration(self):
        run = scg.run(num_cells=4, m=24)
        iters = run.results[0][0]
        stats = run.statistics
        # Interior cells send one PUT and one SEND per iteration.
        assert stats.put_per_pe == pytest.approx(iters * 3 / 4)
        assert stats.send_per_pe == pytest.approx(iters * 3 / 4)

    def test_message_size_is_one_row(self):
        run = scg.run(num_cells=4, m=24)
        assert run.statistics.avg_message_bytes == 24 * 8

    def test_single_cell_degenerates(self):
        run = scg.run(num_cells=1, m=16)
        assert run.verified


class TestTomcatv:
    def test_verified_both_modes(self):
        for use_stride in (True, False):
            run = tomcatv.run(num_cells=4, n=17, iters=3,
                              use_stride=use_stride)
            assert run.verified, (use_stride, run.checks)

    def test_stride_blowup_factor_is_n(self):
        n = 17
        st = tomcatv.run(num_cells=4, n=n, iters=2, use_stride=True)
        no = tomcatv.run(num_cells=4, n=n, iters=2, use_stride=False)
        s_st, s_no = st.statistics, no.statistics
        assert s_no.put_per_pe == n * s_st.puts_per_pe
        assert s_no.avg_message_bytes == pytest.approx(8.0)
        assert s_st.avg_message_bytes == pytest.approx(n * 8.0)

    def test_residual_decreases(self):
        run = tomcatv.run(num_cells=4, n=33, iters=8)
        residuals = run.results[0][0]
        assert residuals[-1][0] < residuals[0][0]

    def test_mesh_updates_identical_across_cell_counts(self):
        a = tomcatv.run(num_cells=2, n=17, iters=3)
        b = tomcatv.run(num_cells=4, n=17, iters=3)
        xa = np.hstack([r[1] for r in a.results if r[1].size])
        xb = np.hstack([r[2 - 1] for r in b.results if r[1].size])
        assert np.allclose(xa, xb, atol=1e-12)


def broadcast_thomas(rx):
    """The Thomas solve with its pivots as broadcast arrays, one column
    per system: the bytes ``tridiag_columns`` must give."""
    n, cols = rx.shape
    cp = np.empty((n, cols))
    dp = np.empty((n, cols))
    cp[0] = -1.0 / tomcatv.DIAG
    dp[0] = rx[0] / tomcatv.DIAG
    for i in range(1, n):
        denom = tomcatv.DIAG + cp[i - 1]
        cp[i] = -1.0 / denom
        dp[i] = (rx[i] + dp[i - 1]) / denom
    out = np.empty((n, cols))
    out[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        out[i] = dp[i] - cp[i] * out[i + 1]
    return out


class TestThomas:
    """Both meshes' tridiagonal systems are solved as one."""

    @pytest.mark.parametrize("cols", [0, 1, 4, 63])
    def test_stacked_solve_is_the_two_apart(self, cols):
        rng = np.random.default_rng(cols)
        rx, ry = rng.standard_normal((2, 65, cols))
        both = tomcatv.tridiag_columns(np.hstack((rx, ry)))
        apart = np.hstack((tomcatv.tridiag_columns(rx),
                           tomcatv.tridiag_columns(ry)))
        assert both.tobytes() == apart.tobytes()
        if cols:
            assert both.tobytes() == broadcast_thomas(
                np.hstack((rx, ry))).tobytes()
        dense = (np.diag(np.full(65, tomcatv.DIAG))
                 - np.eye(65, k=1) - np.eye(65, k=-1))
        assert np.allclose(both, np.linalg.solve(dense, np.hstack((rx, ry))),
                           rtol=0, atol=1e-12)

    def test_cached_pivots_are_read_only(self):
        for pivots in tomcatv.thomas_pivots(65):
            with pytest.raises(ValueError, match="read-only"):
                pivots[0] = 0.0


class TestMatMul:
    def test_verified(self):
        run = matmul.run(num_cells=4, n=32)
        assert run.verified, run.checks

    def test_ring_put_counts(self):
        run = matmul.run(num_cells=4, n=32)
        stats = run.statistics
        assert stats.put_per_pe == 3.0       # P-1 block rotations
        assert stats.sync_per_pe == 5.0      # P steps + initial barrier

    def test_message_is_one_block(self):
        run = matmul.run(num_cells=4, n=32)
        assert run.statistics.avg_message_bytes == (32 // 4) * 32 * 8

    def test_uneven_distribution(self):
        run = matmul.run(num_cells=3, n=20)
        assert run.verified


class TestFT:
    def test_verified(self):
        run = ft.run(num_cells=4, shape=(8, 8, 8), iters=2)
        assert run.verified, run.checks

    def test_transposes_are_stride_puts(self):
        run = ft.run(num_cells=4, shape=(8, 8, 8), iters=2)
        stats = run.statistics
        assert stats.puts_per_pe > 0
        assert stats.put_per_pe == 0.0

    def test_no_stride_mode_same_answer_more_messages(self):
        st = ft.run(num_cells=2, shape=(4, 4, 4), iters=1, use_stride=True)
        no = ft.run(num_cells=2, shape=(4, 4, 4), iters=1, use_stride=False)
        assert st.verified and no.verified
        assert st.results[0] == no.results[0]
        assert no.statistics.put_per_pe > st.statistics.puts_per_pe

    def test_no_stride_overflows_bounded_trace_buffer(self):
        """The paper 'cannot simulate FT without stride data transfers'
        because the trace buffer overflows; reproduce that failure."""
        with pytest.raises(TraceBufferOverflowError):
            ft.run(num_cells=4, shape=(16, 16, 16), iters=3,
                   use_stride=False,
                   config=MachineConfig(trace_capacity=2000))

    def test_evolution_factor_symmetry(self):
        f = ft.evolution_factor((8, 8, 8), 1)
        assert f.max() == pytest.approx(1.0)
        assert (f > 0).all()


class TestSP:
    def test_verified(self):
        run = sp.run(num_cells=4, shape=(16, 8, 8), iters=3, chunks=2)
        assert run.verified, run.checks

    def test_norm_decays(self):
        run = sp.run(num_cells=4, shape=(16, 8, 8), iters=5, chunks=2)
        norms = run.results[0][0]
        assert norms[-1] < norms[0]

    def test_halo_gets_and_pipeline_puts(self):
        run = sp.run(num_cells=4, shape=(16, 8, 8), iters=2, chunks=2)
        stats = run.statistics
        assert stats.get_per_pe > 0      # width-2 halo fetches
        assert stats.put_per_pe > 0      # pipelined boundary rows

    def test_too_many_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            sp.run(num_cells=16, shape=(16, 8, 8), iters=1)

    def test_auto_chunking(self):
        assert sp.pick_chunks(4096) == 128
        assert sp.pick_chunks(64) == 4
        assert sp.pick_chunks(100000) == 128
