"""CG — the NAS conjugate gradient kernel (section 5.2).

"CG is the conjugate gradient method for solving a linear system of
equations.  The order of the input matrix is 1400 with 78184 nonzero
elements."  The NPB kernel estimates the largest eigenvalue of a sparse
symmetric matrix by inverse power iteration: 15 outer iterations, each
running 25 CG steps, then a residual check.

The communication pattern is what makes CG the paper's worst case
(section 5.4): the sparse matrix-vector product needs the *full* iterate
``p`` on every cell, obtained as a **vector global summation** — every
cell contributes its slice into a zero-padded full-length vector and the
group sums them (11 200 bytes = 1400 doubles per V Gop).  With 26 of
those per outer iteration (25 CG steps + 1 residual), the blocking
SEND-based ring reduction dominates, and "communication and computation
cannot overlap during global reductions".

Matrix rows, and all vectors, are block-distributed.  Scalars reduce with
Gop (communication registers).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.base import AppRun, execute
from repro.machine.config import MachineConfig
from repro.lang.distribution import BlockDistribution
from repro.lang.runtime import VPPRuntime

PAPER_PES = 16
PAPER_N = 1400
PAPER_OUTER = 15
PAPER_INNER = 25
DEFAULT_PES = 16
DEFAULT_N = 1400
DEFAULT_OUTER = 4
DEFAULT_INNER = 15
SEED = 314159
SHIFT = 10.0
OFFDIAG_PER_ROW = 27           # ~78k nonzeros at n=1400 after symmetrizing


@lru_cache(maxsize=4)
def make_matrix(n: int) -> np.ndarray:
    """Deterministic sparse SPD matrix, stored dense but mostly zero.

    ~``2*OFFDIAG_PER_ROW`` off-diagonal nonzeros per row (symmetric),
    strong diagonal for positive definiteness; at n=1400 the nonzero count
    lands near the paper's 78 184.
    """
    rng = np.random.default_rng(SEED)
    a = np.zeros((n, n))
    scale = max(n // 50, 1)
    for i in range(n):
        cols = rng.integers(0, n, OFFDIAG_PER_ROW)
        vals = rng.uniform(-1.0, 1.0, OFFDIAG_PER_ROW)
        a[i, cols] = vals
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + SHIFT + scale)
    return a


def _cg_flops(nnz_local: int, n_local: int) -> float:
    """Flop count of one CG step's local work (SpMV + 2 dots + 3 axpys)."""
    return 2.0 * nnz_local + 10.0 * n_local


def program(ctx, *, n: int = DEFAULT_N, outer: int = DEFAULT_OUTER,
            inner: int = DEFAULT_INNER):
    """Distributed NPB-style CG."""
    rt = VPPRuntime(ctx)
    p_cells = ctx.num_cells
    dist = BlockDistribution(n, p_cells)
    lo, hi = dist.part_range(ctx.pe)
    nl = hi - lo
    a_rows = make_matrix(n)[lo:hi]
    nnz_local = int(np.count_nonzero(a_rows))

    st = ctx.ckpt_state(it=0, x=np.ones(nl), zeta=0.0, res_sq=0.0)
    if st.fresh:
        yield from ctx.barrier()
    for _it in range(st.it, outer):
        x = st.x
        # --- 25 CG steps solving A z = x -----------------------------
        z = np.zeros(nl)
        r = x.copy()
        p = r.copy()
        rho = yield from rt.gop(float(r @ r))
        ctx.compute_flops(2.0 * nl)
        for _ in range(inner):
            contrib = np.zeros(n)
            contrib[lo:hi] = p
            p_full = yield from rt.vgop(contrib)
            q = a_rows @ p_full
            pq = yield from rt.gop(float(p @ q))
            alpha = rho / pq
            z += alpha * p
            r -= alpha * q
            rho_new = yield from rt.gop(float(r @ r))
            beta = rho_new / rho
            rho = rho_new
            p = r + beta * p
            ctx.compute_flops(_cg_flops(nnz_local, nl))
            yield from ctx.barrier()
        # --- residual ||x - A z|| (one more V Gop per outer) ----------
        contrib = np.zeros(n)
        contrib[lo:hi] = z
        z_full = yield from rt.vgop(contrib)
        res_local = x - a_rows @ z_full
        res_sq = yield from rt.gop(float(res_local @ res_local))
        ctx.compute_flops(2.0 * nnz_local + 2.0 * nl)
        # --- eigenvalue estimate and normalized restart ----------------
        xz = yield from rt.gop(float(x @ z))
        zz = yield from rt.gop(float(z @ z))
        st.zeta = SHIFT + 1.0 / xz
        st.x = z / np.sqrt(zz)
        st.res_sq = res_sq
        st.it = _it + 1
        ctx.compute_flops(4.0 * nl)
        yield from ctx.checkpoint(barrier=True)
    return st.zeta, float(np.sqrt(st.res_sq))


def reference(*, n: int = DEFAULT_N, outer: int = DEFAULT_OUTER,
              inner: int = DEFAULT_INNER) -> tuple[float, float]:
    """Sequential numpy version of the identical algorithm."""
    a = make_matrix(n)
    x = np.ones(n)
    zeta = 0.0
    res = 0.0
    for _ in range(outer):
        z = np.zeros(n)
        r = x.copy()
        p = r.copy()
        rho = float(r @ r)
        for _ in range(inner):
            q = a @ p
            alpha = rho / float(p @ q)
            z += alpha * p
            r -= alpha * q
            rho_new = float(r @ r)
            beta = rho_new / rho
            rho = rho_new
            p = r + beta * p
        resv = x - a @ z
        res = float(np.sqrt(resv @ resv))
        zeta = SHIFT + 1.0 / float(x @ z)
        x = z / np.linalg.norm(z)
    return zeta, res


def run(num_cells: int = DEFAULT_PES, *, n: int = DEFAULT_N,
        outer: int = DEFAULT_OUTER, inner: int = DEFAULT_INNER,
        config: MachineConfig | None = None,
        resume_from: str | None = None) -> AppRun:
    """Run CG and verify the eigenvalue estimate against the sequential
    reference."""

    def verify(results, machine):
        zeta, res = results[0]
        same = all(abs(r[0] - zeta) < 1e-9 for r in results)
        ref_zeta, ref_res = reference(n=n, outer=outer, inner=inner)
        return {
            "all_cells_agree": same,
            "zeta_matches": abs(zeta - ref_zeta) < 1e-7 * abs(ref_zeta),
            "residual_small": res < 1e-4 * n,
            "residual_matches": abs(res - ref_res) < 1e-5 * max(ref_res, 1.0),
        }

    return execute("CG", program, num_cells, verify,
                   config=config, resume_from=resume_from,
                   n=n, outer=outer, inner=inner)
