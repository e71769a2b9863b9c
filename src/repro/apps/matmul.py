"""MatMul — dense matrix multiplication in C with direct PUT (section 5.2).

"MatMul calculates A x B = C.  The matrix to be calculated is a dense
800 x 800 matrix" on 64 cells.  Table 3 shows the C-style pattern: 64
PUTs per PE of 76 800 bytes each (one 12-or-13-row block of B, rotated
around the ring), 64 barriers, and nothing else — the program overlaps
communication with computation by PUTting the *next* B block while
multiplying with the current one, double-buffered on a receive flag.

All three matrices are row-block distributed.  Step ``s`` multiplies the
local A columns owned by the cell currently ``s`` hops upstream with the
B block received from it:  C_p += A_p[:, rows(q)] @ B_q for every q.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.apps.base import AppRun, execute
from repro.machine.config import MachineConfig
from repro.lang.distribution import BlockDistribution

PAPER_PES = 64
PAPER_N = 800
DEFAULT_PES = 16
DEFAULT_N = 128
SEED = 1201


@lru_cache(maxsize=4)
def _make_inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    return a, b


def program(ctx, *, n: int = DEFAULT_N):
    """Ring-rotation matmul with double-buffered PUT."""
    p = ctx.num_cells
    dist = BlockDistribution(n, p)
    lo, hi = dist.part_range(ctx.pe)
    rows = hi - lo
    max_rows = dist.local_size(0)
    a_full, b_full = _make_inputs(n)

    a_local = ctx.alloc((max_rows, n))
    c_local = ctx.alloc((max_rows, n))
    # Double buffers for the travelling B block.
    b_buf = [ctx.alloc((max_rows, n)), ctx.alloc((max_rows, n))]
    recv_flag = ctx.alloc_flag()
    st = ctx.ckpt_state(step=0)

    if st.fresh:
        # On a restored run the matrices (and partial C) come back with
        # the cell memories; only a fresh run initializes and traces the
        # initial barrier.
        a_local.data[:rows] = a_full[lo:hi]
        b_buf[0].data[:rows] = b_full[lo:hi]
        c_local.data[:] = 0.0
        yield from ctx.barrier()

    right = (ctx.pe + 1) % p
    for step in range(st.step, p):
        # The block in the current buffer originated `step` hops upstream.
        owner = (ctx.pe - step) % p
        cur, nxt = b_buf[step % 2], b_buf[(step + 1) % 2]
        olo, ohi = dist.part_range(owner)
        orows = ohi - olo
        if step + 1 < p:
            # Send the current block onward before computing: the PUT is
            # non-blocking, so transfer and multiply overlap.
            ctx.put(right, nxt, cur, count=orows * n, recv_flag=recv_flag)
        if rows and orows:
            c_local.data[:rows] += (
                a_local.data[:rows, olo:ohi] @ cur.data[:orows])
            ctx.compute_flops(2.0 * rows * orows * n)
        if step + 1 < p:
            yield from ctx.flag_wait(recv_flag, step + 1)
        st.step = step + 1
        yield from ctx.checkpoint(barrier=True)
    return c_local.data[:rows].copy()


def reference(*, n: int = DEFAULT_N) -> np.ndarray:
    a, b = _make_inputs(n)
    return a @ b


def run(num_cells: int = DEFAULT_PES, *, n: int = DEFAULT_N,
        config: MachineConfig | None = None,
        resume_from: str | None = None) -> AppRun:
    """Run MatMul and verify C against numpy's ``A @ B``."""

    def verify(results, machine):
        c = np.vstack([r for r in results if r.size])
        expected = reference(n=n)
        return {
            "shape": c.shape == expected.shape,
            "product_matches": bool(np.allclose(c, expected, atol=1e-8)),
        }

    return execute("MatMul", program, num_cells, verify,
                   config=config, resume_from=resume_from, n=n)
