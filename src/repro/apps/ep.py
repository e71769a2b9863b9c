"""EP — the NAS embarrassingly parallel kernel.

"EP generates 2^28 pseudo-random numbers and has no communication"
(section 5.2); Table 3 accordingly shows an all-zero row.  Each cell
generates its share of the NPB linear-congruential sequence
(x_{k+1} = a * x_k mod 2^46, a = 5^13), forms uniform pairs in (-1, 1)^2,
applies the Marsaglia acceptance test x^2 + y^2 <= 1, and histograms the
accepted deviates by square annulus — all without a single message.

The LCG supports O(log k) jump-ahead, which is how the cells split the
sequence: cell p starts at element ``p * pairs_per_cell * 2``.  The
per-pair floating-point work is charged at NPB EP's documented ~25 flops.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppRun, execute
from repro.machine.config import MachineConfig
from repro.trace.events import EventKind

#: NPB EP constants.
LCG_A = 5 ** 13
LCG_MOD = 1 << 46
SEED = 271828183
BINS = 10
FLOPS_PER_PAIR = 25.0

#: Paper configuration: 2^28 random numbers on 64 cells.
PAPER_PES = 64
PAPER_LOG2_PAIRS = 27          # 2^28 randoms = 2^27 pairs
DEFAULT_PES = 16
DEFAULT_LOG2_PAIRS = 13


def lcg_jump(seed: int, steps: int) -> int:
    """Advance the LCG by ``steps`` in O(log steps)."""
    return (seed * pow(LCG_A, steps, LCG_MOD)) % LCG_MOD


def lcg_block(seed: int, count: int) -> np.ndarray:
    """The next ``count`` LCG values as uniforms in [0, 1).

    Generated in Python integers (the modulus exceeds what uint64
    products can hold) but consumed vectorized.
    """
    out = np.empty(count, dtype=np.float64)
    x = seed
    inv = 1.0 / LCG_MOD
    for i in range(count):
        x = (x * LCG_A) % LCG_MOD
        out[i] = x * inv
    return out


def ep_kernel(seed: int, pairs: int) -> tuple[np.ndarray, float, float]:
    """Count accepted pairs per annulus; returns (bins, sum_x, sum_y)."""
    uniforms = lcg_block(seed, 2 * pairs)
    x = 2.0 * uniforms[0::2] - 1.0
    y = 2.0 * uniforms[1::2] - 1.0
    t = x * x + y * y
    accept = t <= 1.0
    xa, ya, ta = x[accept], y[accept], t[accept]
    # Marsaglia polar transform to Gaussian deviates.
    factor = np.sqrt(-2.0 * np.log(np.where(ta > 0, ta, 1.0)) /
                     np.where(ta > 0, ta, 1.0))
    gx, gy = xa * factor, ya * factor
    annulus = np.minimum(np.maximum(np.abs(gx), np.abs(gy)).astype(int),
                         BINS - 1)
    bins = np.bincount(annulus, minlength=BINS).astype(np.float64)
    return bins, float(gx.sum()), float(gy.sum())


def program(ctx, *, log2_pairs: int = DEFAULT_LOG2_PAIRS):
    """The SPMD EP program: pure computation, no communication."""
    total_pairs = 1 << log2_pairs
    per_cell = total_pairs // ctx.num_cells
    extra = total_pairs % ctx.num_cells
    my_pairs = per_cell + (1 if ctx.pe < extra else 0)
    my_start = ctx.pe * per_cell + min(ctx.pe, extra)
    seed = lcg_jump(SEED, 2 * my_start)
    bins, sx, sy = ep_kernel(seed, my_pairs)
    ctx.compute_flops(FLOPS_PER_PAIR * my_pairs)
    # EP is a plain function, not a generator: it never blocks, because it
    # never communicates (the scheduler accepts both).
    return bins, sx, sy


def reference(*, log2_pairs: int = DEFAULT_LOG2_PAIRS):
    """Sequential EP over the whole sequence."""
    return ep_kernel(SEED, 1 << log2_pairs)


def run(num_cells: int = DEFAULT_PES, *,
        log2_pairs: int = DEFAULT_LOG2_PAIRS,
        config: MachineConfig | None = None,
        resume_from: str | None = None) -> AppRun:
    """Run EP and verify the distributed counts against the sequential
    reference (the LCG split must be seamless)."""

    def verify(results, machine):
        bins = sum(r[0] for r in results)
        sx = sum(r[1] for r in results)
        sy = sum(r[2] for r in results)
        ref_bins, ref_sx, ref_sy = reference(log2_pairs=log2_pairs)
        return {
            "bins_match": bool(np.array_equal(bins, ref_bins)),
            "sum_x_match": abs(sx - ref_sx) < 1e-6 * max(abs(ref_sx), 1.0),
            "sum_y_match": abs(sy - ref_sy) < 1e-6 * max(abs(ref_sy), 1.0),
            "no_communication": bool(np.isin(
                machine.trace.block()["kind"],
                [EventKind.COMPUTE, EventKind.RTSYS]).all()),
        }

    return execute("EP", program, num_cells, verify,
                   config=config, resume_from=resume_from,
                   log2_pairs=log2_pairs)
