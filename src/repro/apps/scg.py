"""SCG — scaled conjugate gradient in C with direct PUT/GET (section 5.2).

"SCG solves Poisson's differential equation using the scaled conjugate
gradient method in which the coefficient matrix is scaled by diagonal
elements.  The matrix to be solved is a sparse 40000 x 40000 matrix" —
i.e. the 5-point Laplacian of a 200 x 200 grid, on 64 cells.

Table 3 shows the hand-written C style: ~878 PUTs *and* ~878 SENDs per
PE (one per CG iteration each), 1600-byte messages (one 200-double halo
row), ~893 scalar Gops, and exactly **one** barrier — the program
synchronizes on flags and overlaps communication with computation, which
is why SCG nearly reaches peak processor performance on the AP1000+
(section 5.4).

The grid is strip-distributed by rows.  Each iteration pushes the last
owned row *down* with a PUT (flag-synchronized) and the first owned row
*up* with a SEND (ring-buffer receive) — the mixed pattern of Table 3.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.base import AppRun, execute
from repro.machine.config import MachineConfig
from repro.lang.distribution import BlockDistribution

PAPER_PES = 64
PAPER_M = 200                   # 200 x 200 grid = 40 000 unknowns
DEFAULT_PES = 16
DEFAULT_M = 48
SEED = 20607
TOL = 1.0e-6
MAX_ITERS = 4000


@lru_cache(maxsize=4)
def make_rhs(m: int) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    return rng.uniform(-1.0, 1.0, (m, m))


def apply_scaled_laplacian(p_rows: np.ndarray, top: np.ndarray | None,
                           bottom: np.ndarray | None) -> np.ndarray:
    """q = D^{-1/2} A D^{-1/2} p for the 5-point Laplacian (diag = 4).

    ``p_rows`` is the owned strip; ``top``/``bottom`` are halo rows (None
    at the physical boundary).  With the constant diagonal the scaling is
    simply division by 4.
    """
    q = 4.0 * p_rows
    q[:, 1:] -= p_rows[:, :-1]
    q[:, :-1] -= p_rows[:, 1:]
    q[1:] -= p_rows[:-1]
    q[:-1] -= p_rows[1:]
    if top is not None:
        q[0] -= top
    if bottom is not None:
        q[-1] -= bottom
    return q / 4.0


def program(ctx, *, m: int = DEFAULT_M, tol: float = TOL,
            max_iters: int = MAX_ITERS):
    """Distributed diagonally-scaled CG on the 5-point Poisson problem."""
    p_cells = ctx.num_cells
    dist = BlockDistribution(m, p_cells)
    rlo, rhi = dist.part_range(ctx.pe)
    rows = rhi - rlo

    b = make_rhs(m)[rlo:rhi] / 4.0     # scaled right-hand side
    u = np.zeros((rows, m)) if rows else np.zeros((0, m))
    r = b.copy()
    p_vec = r.copy()

    # Halo buffers in cell DRAM: the upper neighbour PUTs into halo_top.
    halo_top = ctx.alloc(m)
    send_row = ctx.alloc(m)
    halo_flag = ctx.alloc_flag()
    up = ctx.pe - 1 if rlo > 0 else None
    down = ctx.pe + 1 if rhi < m else None

    yield from ctx.barrier()       # the single barrier of Table 3
    rho = yield from ctx.gop(float((r * r).sum()))
    rho0 = rho
    iters = 0
    flops_per_iter = 10.0 * rows * m + 10.0 * rows * m
    while rho > (tol * tol) * rho0 and iters < max_iters:
        iters += 1
        # --- halo exchange: PUT down, SEND up ------------------------
        if down is not None:
            send_row.data[:] = p_vec[-1]
            ctx.put(down, halo_top, send_row, recv_flag=halo_flag)
        if up is not None:
            ctx.send(up, p_vec[0], context=7)
        top = None
        if up is not None:
            yield from ctx.flag_wait(halo_flag, iters if up is not None else 0)
            top = halo_top.data.copy()
        bottom = None
        if down is not None:
            packet = yield from ctx.recv(src=down, context=7)
            bottom = np.frombuffer(packet.data, dtype=np.float64)
        # --- CG step ---------------------------------------------------
        q = apply_scaled_laplacian(p_vec, top, bottom) if rows else p_vec * 0
        pq = yield from ctx.gop(float((p_vec * q).sum()))
        alpha = rho / pq
        u += alpha * p_vec
        r -= alpha * q
        rho_new = yield from ctx.gop(float((r * r).sum()))
        beta = rho_new / rho
        rho = rho_new
        p_vec = r + beta * p_vec
        ctx.compute_flops(flops_per_iter)
    return iters, float(np.sqrt(rho / rho0)), u


def reference(*, m: int = DEFAULT_M, tol: float = TOL,
              max_iters: int = MAX_ITERS):
    """Sequential numpy version of the identical algorithm."""
    b = make_rhs(m) / 4.0
    u = np.zeros((m, m))
    r = b.copy()
    p_vec = r.copy()
    rho = float((r * r).sum())
    rho0 = rho
    iters = 0
    while rho > (tol * tol) * rho0 and iters < max_iters:
        iters += 1
        q = apply_scaled_laplacian(p_vec, None, None)
        alpha = rho / float((p_vec * q).sum())
        u += alpha * p_vec
        r -= alpha * q
        rho_new = float((r * r).sum())
        beta = rho_new / rho
        rho = rho_new
        p_vec = r + beta * p_vec
    return iters, float(np.sqrt(rho / rho0)), u


def run(num_cells: int = DEFAULT_PES, *, m: int = DEFAULT_M,
        tol: float = TOL, max_iters: int = MAX_ITERS,
        config: MachineConfig | None = None,
        resume_from: str | None = None) -> AppRun:
    """Run SCG and verify convergence and the solution itself."""

    def verify(results, machine):
        iters, rel_res, _ = results[0]
        u = np.vstack([r[2] for r in results if r[2].size])
        ref_iters, ref_res, ref_u = reference(m=m, tol=tol,
                                              max_iters=max_iters)
        # Direct residual check of the assembled parallel solution.
        resid = make_rhs(m) / 4.0 - apply_scaled_laplacian(u, None, None)
        rel = float(np.linalg.norm(resid) /
                    np.linalg.norm(make_rhs(m) / 4.0))
        return {
            "converged": rel_res <= tol,
            "iters_close": abs(iters - ref_iters) <= max(2, ref_iters // 20),
            "true_residual_small": rel < 10 * tol,
            "solution_matches": bool(np.allclose(u, ref_u, atol=1e-5)),
        }

    return execute("SCG", program, num_cells, verify,
                   config=config, resume_from=resume_from,
                   m=m, tol=tol, max_iters=max_iters)
