"""Ablation — one-dimensional vs two-dimensional partitioning.

Section 5.4's closing observation: the VPP Fortran applications are all
parallelized one-dimensionally, so group barriers and group reductions
go unused; "group barrier synchronization and global reductions will be
performed if larger dimensional partitioning is used for optimization."

This bench runs the same matrix product both ways on the same 16 cells —
the ring-rotation MatMul (1-D row blocks, world barriers) and SUMMA
(2-D blocks, row/column group barriers and reductions) — and compares
message structure and simulated time on the AP1000+.
"""

import numpy as np
import pytest

from conftest import write_artifact
from repro.apps import matmul, summa
from repro.mlsim.params import ap1000_plus_params
from repro.mlsim.simulator import simulate
from repro.trace.events import EventKind

CELLS = 16
N = 256


@pytest.fixture(scope="module")
def pair():
    ring = matmul.run(num_cells=CELLS, n=N)
    grid = summa.run(num_cells=CELLS, n=N)
    assert ring.verified and grid.verified
    ring_time = simulate(ring.trace, ap1000_plus_params())
    grid_time = simulate(grid.trace, ap1000_plus_params())
    write_artifact(
        "ablation_partitioning.txt",
        f"{N}x{N} matrix product on {CELLS} cells (AP1000+ model)\n"
        f"1-D ring MatMul : {ring_time.elapsed_us:10.1f} us, "
        f"{ring_time.messages} messages, "
        f"{ring_time.bytes_on_wire} bytes\n"
        f"2-D SUMMA       : {grid_time.elapsed_us:10.1f} us, "
        f"{grid_time.messages} messages, "
        f"{grid_time.bytes_on_wire} bytes\n")
    return ring, grid, ring_time, grid_time


class TestPartitioningAblation:
    def test_2d_moves_fewer_bytes(self, pair):
        """SUMMA's panels shrink with the grid side: each cell receives
        O(n^2/sqrt(P)) bytes instead of the ring's O(n^2)."""
        ring, grid, ring_time, grid_time = pair
        assert grid_time.bytes_on_wire < ring_time.bytes_on_wire

    def test_2d_uses_group_collectives_1d_does_not(self, pair):
        ring, grid, *_ = pair
        ring_group_ops, grid_group_ops = (int(np.count_nonzero(
            np.isin(block["kind"], (EventKind.BARRIER, EventKind.GOP))
            & (block["group"] != 0)))
            for block in (ring.trace.block(), grid.trace.block()))
        assert ring_group_ops == 0
        assert grid_group_ops > 100

    def test_2d_messages_are_strided(self, pair):
        ring, grid, *_ = pair
        assert ring.statistics.puts_per_pe == 0.0    # contiguous blocks
        assert grid.statistics.put_per_pe == 0.0     # strided panels
        assert grid.statistics.puts_per_pe > 0

    def test_2d_is_competitive_or_better(self, pair):
        *_, ring_time, grid_time = pair
        assert grid_time.elapsed_us < 1.5 * ring_time.elapsed_us


class TestThroughput:
    def test_summa_functional_run(self, benchmark):
        result = benchmark.pedantic(
            lambda: summa.run(num_cells=16, n=96), rounds=3, iterations=1)
        assert result.verified

    def test_ring_functional_run(self, benchmark):
        result = benchmark.pedantic(
            lambda: matmul.run(num_cells=16, n=96), rounds=3, iterations=1)
        assert result.verified
