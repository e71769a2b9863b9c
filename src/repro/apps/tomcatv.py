"""TOMCATV — vectorized mesh generation (SPEC, section 5.2).

TOMCATV iteratively relaxes the coordinates (X, Y) of a structured
257 x 257 mesh: compute residuals with a 5-point stencil, solve a
tridiagonal system along the first index for every column, apply the
correction, and reduce the maximum displacement for the convergence test.
The paper simulated the first 10 iterations on 16 cells.

The arrays are distributed along the *second* dimension with a
one-column overlap area — precisely Figure 2's layout, where "stride
data transfer is necessary if the overlap area is allocated along the
2nd dimension": a halo column is one element per row, ``N`` elements
``N`` apart in memory.

Run with ``use_stride=True`` each boundary moves as a single PUTS/GETS
of N*8 bytes (2056 bytes at N=257 — Table 3's message size).  With
``use_stride=False`` the runtime sends every element separately: 257x
the messages at 1/257th the size, the exact blowup of section 5.4.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.base import AppRun, execute
from repro.machine.config import MachineConfig
from repro.lang.runtime import VPPRuntime

PAPER_PES = 16
PAPER_N = 257
PAPER_ITERS = 10
DEFAULT_PES = 16
DEFAULT_N = 65
DEFAULT_ITERS = 10
OMEGA = 0.8
DIAG = 4.0
#: Flops per interior mesh point per iteration.  The full SPEC kernel
#: evaluates metric terms (~60 flops), residuals, and two tridiagonal
#: solves per point; the simplified stencil here computes less, but the
#: charge reflects the original's arithmetic so the compute/communication
#: balance matches the paper's.
FLOPS_PER_POINT = 150.0


@lru_cache(maxsize=4)
def initial_mesh(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic distorted mesh (the SPEC input is a data file;
    this synthetic mesh exercises the identical code path)."""
    i = np.arange(n)[:, None] / (n - 1)
    j = np.arange(n)[None, :] / (n - 1)
    x = j + 0.1 * np.sin(2.0 * np.pi * i) * np.sin(np.pi * j)
    y = i + 0.1 * np.sin(np.pi * i) * np.sin(2.0 * np.pi * j)
    return x, y


def tridiag_columns(rx: np.ndarray) -> np.ndarray:
    """Solve (-1, DIAG, -1) tridiagonal systems along axis 0, one system
    per column, by the vectorized Thomas algorithm."""
    n, cols = rx.shape
    if cols == 0 or n == 0:
        return rx.copy()
    cp = np.empty((n, cols))
    dp = np.empty((n, cols))
    cp[0] = -1.0 / DIAG
    dp[0] = rx[0] / DIAG
    for i in range(1, n):
        denom = DIAG + cp[i - 1]
        cp[i] = -1.0 / denom
        dp[i] = (rx[i] + dp[i - 1]) / denom
    out = np.empty((n, cols))
    out[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        out[i] = dp[i] - cp[i] * out[i + 1]
    return out


def relax_step(x: np.ndarray, y: np.ndarray,
               j_lo: int, j_hi: int,
               ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """One TOMCATV relaxation over columns [j_lo, j_hi) of a view that
    includes one halo column on each side of that range.

    ``x``/``y`` views use local column coordinates where column ``c``
    corresponds to global ``j_lo - 1 + c``.  Returns the column-range
    corrections and the local max displacements.
    """
    n = x.shape[0]
    cols = j_hi - j_lo
    if cols <= 0:
        empty = np.zeros((n, 0))
        return empty, empty, 0.0, 0.0
    sl = slice(1, 1 + cols)
    rx = np.zeros((n, cols))
    ry = np.zeros((n, cols))
    interior = slice(1, n - 1)
    rx[interior] = (x[:-2, sl] + x[2:, sl]
                    + x[interior, 0:cols] + x[interior, 2:2 + cols]
                    - 4.0 * x[interior, sl])
    ry[interior] = (y[:-2, sl] + y[2:, sl]
                    + y[interior, 0:cols] + y[interior, 2:2 + cols]
                    - 4.0 * y[interior, sl])
    dx = tridiag_columns(rx)
    dy = tridiag_columns(ry)
    dx[0] = dx[-1] = 0.0
    dy[0] = dy[-1] = 0.0
    return (dx, dy, float(np.abs(dx).max(initial=0.0)),
            float(np.abs(dy).max(initial=0.0)))


def program(ctx, *, n: int = DEFAULT_N, iters: int = DEFAULT_ITERS,
            use_stride: bool = True):
    """Distributed TOMCATV over column-partitioned mesh arrays."""
    rt = VPPRuntime(ctx, use_stride=use_stride)
    gx = rt.global_array((n, n), dist_axis=1, overlap=1)
    gy = rt.global_array((n, n), dist_axis=1, overlap=1)
    x0, y0 = initial_mesh(n)
    lo, hi = gx.lo, gx.hi
    gx.interior()[:] = x0[:, lo:hi]
    gy.interior()[:] = y0[:, lo:hi]
    yield from ctx.barrier()

    residuals = []
    for _ in range(iters):
        rt.overlap_fix_mixed(gx)
        rt.overlap_fix_mixed(gy)
        yield from rt.movewait()
        # Interior global columns owned by this cell.
        j_lo, j_hi = max(lo, 1), min(hi, n - 1)
        mx = my = 0.0
        if j_hi > j_lo:
            # Local views including one halo column either side.
            c0 = j_lo - lo + gx.overlap - 1
            c1 = j_hi - lo + gx.overlap + 1
            xv = gx.block.data[:, c0:c1]
            yv = gy.block.data[:, c0:c1]
            dx, dy, mx, my = relax_step(xv, yv, j_lo, j_hi)
            xv[:, 1:1 + (j_hi - j_lo)] += OMEGA * dx
            yv[:, 1:1 + (j_hi - j_lo)] += OMEGA * dy
            ctx.compute_flops(FLOPS_PER_POINT * n * (j_hi - j_lo))
        gmx = yield from rt.gop(mx, op="max")
        gmy = yield from rt.gop(my, op="max")
        residuals.append((gmx, gmy))
        yield from ctx.barrier()
    return residuals, gx.interior().copy(), gy.interior().copy()


def reference(*, n: int = DEFAULT_N, iters: int = DEFAULT_ITERS):
    """Sequential TOMCATV with the identical update."""
    x0, y0 = initial_mesh(n)
    x, y = x0.copy(), y0.copy()   # initial_mesh is cached; never mutate it
    residuals = []
    for _ in range(iters):
        # The full array is its own halo'd view: column c of the view is
        # global column (j_lo - 1) + c = c for j_lo = 1.
        dx, dy, mx, my = relax_step(x, y, 1, n - 1)
        x[:, 1:n - 1] += OMEGA * dx
        y[:, 1:n - 1] += OMEGA * dy
        residuals.append((mx, my))
    return residuals, x, y


def run(num_cells: int = DEFAULT_PES, *, n: int = DEFAULT_N,
        iters: int = DEFAULT_ITERS, use_stride: bool = True,
        config: MachineConfig | None = None,
        resume_from: str | None = None) -> AppRun:
    """Run TOMCATV and verify mesh coordinates against the sequential
    reference (elementwise-identical arithmetic, so the match is tight)."""

    def verify(results, machine):
        ref_res, ref_x, ref_y = reference(n=n, iters=iters)
        xs = np.hstack([r[1] for r in results if r[1].size])
        ys = np.hstack([r[2] for r in results if r[2].size])
        res_ok = all(
            abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12
            for a, b in zip(results[0][0], ref_res))
        return {
            "x_matches": bool(np.allclose(xs, ref_x, atol=1e-11)),
            "y_matches": bool(np.allclose(ys, ref_y, atol=1e-11)),
            "residual_trace_matches": res_ok,
            "converging": results[0][0][-1][0] <= results[0][0][0][0],
        }

    return execute("TOMCATV", program, num_cells, verify,
                   config=config, resume_from=resume_from,
                   n=n, iters=iters, use_stride=use_stride)
