"""SUMMA — matrix multiplication under two-dimensional partitioning.

Section 5.4: "Since all applications in VPP Fortran are parallelized by
one-dimensional partitioning, they do not use barrier synchronization
and global reduction for specific groups of nodes.  Group barrier
synchronization and global reductions will be performed if larger
dimensional partitioning is used for optimization."

This module is that optimization, applied to MatMul: the cells form a
``g x g`` grid, all three matrices are 2-D block distributed, and each of
the ``g`` SUMMA steps broadcasts one panel of A along every *row group*
and one panel of B along every *column group* (strided PUTs, since a 2-D
block is a set of equally spaced row segments).  Synchronization is
entirely group-wise: group barriers end each step, and the verification
checksum reduces first within row groups, then across a column group —
exactly the group collectives the paper anticipates.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.apps.base import AppRun, execute
from repro.machine.config import MachineConfig
from repro.core.errors import ConfigurationError
from repro.core.stride import ElementStride
from repro.lang.distribution import BlockDistribution

DEFAULT_PES = 16          # 4 x 4 grid
DEFAULT_N = 96
PAPER_PES = 64            # 8 x 8 grid of the MatMul row's 64 cells
PAPER_N = 800
SEED = 7207


@lru_cache(maxsize=4)
def make_inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(SEED)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def grid_side(num_cells: int) -> int:
    side = math.isqrt(num_cells)
    if side * side != num_cells:
        raise ConfigurationError(
            f"SUMMA needs a square cell grid; {num_cells} cells do not "
            "form one")
    return side


def program(ctx, *, n: int = DEFAULT_N):
    """2-D block SUMMA with group-wise communication."""
    g = grid_side(ctx.num_cells)
    row, col = divmod(ctx.pe, g)
    rdist = BlockDistribution(n, g)
    cdist = BlockDistribution(n, g)
    rlo, rhi = rdist.part_range(row)
    clo, chi = cdist.part_range(col)
    rows, cols = rhi - rlo, chi - clo
    rmax, cmax = rdist.local_size(0), cdist.local_size(0)

    # The 2-D process groups of section 2.3's index partitions.
    row_group = ctx.make_group([row * g + j for j in range(g)])
    col_group = ctx.make_group([i * g + col for i in range(g)])

    a_local = ctx.alloc((rmax, cmax))
    b_local = ctx.alloc((rmax, cmax))
    c_local = ctx.alloc((rmax, cmax))
    a_panel = ctx.alloc((rmax, cmax))
    b_panel = ctx.alloc((rmax, cmax))
    a_flag = ctx.alloc_flag()
    b_flag = ctx.alloc_flag()
    a_expected = b_expected = 0

    a_full, b_full = make_inputs(n)
    a_local.data[:rows, :cols] = a_full[rlo:rhi, clo:chi]
    b_local.data[:rows, :cols] = b_full[rlo:rhi, clo:chi]
    c_local.data[:] = 0.0
    yield from ctx.barrier()

    for k in range(g):
        klo, khi = cdist.part_range(k)
        ksz = khi - klo
        # --- broadcast A's column-panel k along my row group ----------
        if col == k:
            stride = ElementStride(ksz, rows, cmax)
            for peer in row_group.members:
                if peer == ctx.pe:
                    a_panel.data[:rows, :ksz] = a_local.data[:rows, :ksz]
                else:
                    ctx.put_stride(peer, a_panel, a_local, stride, stride,
                                   recv_flag=a_flag)
        else:
            a_expected += 1
        # --- broadcast B's row-panel k along my column group -----------
        krlo, krhi = rdist.part_range(k)
        krsz = krhi - krlo
        if row == k:
            stride = ElementStride(cols, krsz, cmax)
            for peer in col_group.members:
                if peer == ctx.pe:
                    b_panel.data[:krsz, :cols] = b_local.data[:krsz, :cols]
                else:
                    ctx.put_stride(peer, b_panel, b_local, stride, stride,
                                   recv_flag=b_flag)
        else:
            b_expected += 1
        yield from ctx.flag_wait(a_flag, a_expected)
        yield from ctx.flag_wait(b_flag, b_expected)
        # --- local rank-k update ---------------------------------------
        if rows and cols and ksz:
            c_local.data[:rows, :cols] += (
                a_panel.data[:rows, :ksz] @ b_panel.data[:krsz, :cols])
            ctx.compute_flops(2.0 * rows * ksz * cols)
        # Group barriers close the step: the next panel owner must not
        # overwrite a panel buffer someone is still multiplying with.
        yield from ctx.barrier(row_group)
        yield from ctx.barrier(col_group)

    # --- verification checksum through *group* reductions ---------------
    local_sum = float(c_local.data[:rows, :cols].sum())
    row_sum = yield from ctx.gop(local_sum, group=row_group)
    total = None
    if col == 0:
        total = yield from ctx.gop(row_sum, group=col_group)
    yield from ctx.barrier()
    return c_local.data[:rows, :cols].copy(), total


def reference(*, n: int = DEFAULT_N) -> np.ndarray:
    a, b = make_inputs(n)
    return a @ b


def run(num_cells: int = DEFAULT_PES, *, n: int = DEFAULT_N,
        config: MachineConfig | None = None,
        resume_from: str | None = None) -> AppRun:
    """Run SUMMA and verify both the assembled product and the
    group-reduced checksum."""
    g = grid_side(num_cells)

    def verify(results, machine):
        expected = reference(n=n)
        dist = BlockDistribution(n, g)
        assembled = np.zeros((n, n))
        for pe, (block, _) in enumerate(results):
            row, col = divmod(pe, g)
            rlo, rhi = dist.part_range(row)
            clo, chi = dist.part_range(col)
            assembled[rlo:rhi, clo:chi] = block
        totals = [r[1] for r in results if r[1] is not None]
        return {
            "product_matches": bool(np.allclose(assembled, expected,
                                                atol=1e-8)),
            "checksum_cells": len(totals) == g,   # first grid column
            "checksum_matches": all(
                abs(t - expected.sum()) < 1e-6 * max(abs(expected.sum()), 1)
                for t in totals),
        }

    return execute("SUMMA", program, num_cells, verify,
                   config=config, resume_from=resume_from, n=n)
