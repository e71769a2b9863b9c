#!/usr/bin/env python3
"""Distributed matrix transpose with one-dimensional stride PUT (Fig. 3).

Transposing a row-distributed matrix is the classic all-to-all stride
pattern (it is the heart of FT's 3-D FFT): the block a cell sends to
each peer is a set of equally spaced row segments — one ``put_stride``
per destination.  Without hardware stride support each segment is its
own message.

The example transposes a matrix both ways, verifies against numpy, and
prints the paper-style cost comparison on both machine models.

Run:  python examples/stride_transpose.py
"""

import numpy as np

from repro import Machine, MachineConfig
from repro.core.stride import ElementStride
from repro.lang.distribution import BlockDistribution
from repro.mlsim.params import ap1000_plus_params, ap1000_params
from repro.mlsim.simulator import simulate
from repro.trace.events import EventKind

CELLS = 8
N = 64


def program(ctx, use_stride=True):
    dist = BlockDistribution(N, ctx.num_cells)
    lo, hi = dist.part_range(ctx.pe)
    rows = hi - lo
    rmax = dist.local_size(0)

    a = ctx.alloc((rmax, N))          # my row block of A
    t = ctx.alloc((rmax, N))          # my row block of A^T
    staging = ctx.alloc((N, rmax))    # incoming column blocks, row-major
    full = np.arange(N * N, dtype=np.float64).reshape(N, N)
    a.data[:rows] = full[lo:hi]
    yield from ctx.barrier()

    # Send every peer the columns it owns (my rows restricted to its
    # column range); it lands in `staging` at my row offset.
    for q in range(ctx.num_cells):
        qlo, qhi = dist.part_range(q)
        width = qhi - qlo
        if width == 0 or rows == 0:
            continue
        if q == ctx.pe:
            staging.data[lo:hi, :width] = a.data[:rows, qlo:qhi]
            continue
        if use_stride:
            ctx.put_stride(
                q, staging, a,
                ElementStride(width, rows, N),       # gather: row segments
                ElementStride(width, rows, rmax),    # scatter: packed rows
                dest_offset=lo * rmax, src_offset=qlo, ack=True)
        else:
            for r in range(rows):
                ctx.put(q, staging, a, count=width,
                        dest_offset=(lo + r) * rmax,
                        src_offset=r * N + qlo, ack=True)
    yield from ctx.finish_puts()
    yield from ctx.barrier()

    # Local transpose of the staged columns: t[c, :] = staging[:, c].
    if rows:
        t.data[:rows] = staging.data[:, :rows].T
        ctx.compute_flops(0.5 * N * rows)
    return t.data[:rows].copy()


def run(use_stride):
    machine = Machine(MachineConfig(num_cells=CELLS))
    results = machine.run(program, use_stride=use_stride)
    return machine, np.vstack([r for r in results if r.size])


def main() -> None:
    full = np.arange(N * N, dtype=np.float64).reshape(N, N)
    for use_stride in (True, False):
        machine, transposed = run(use_stride)
        ok = np.array_equal(transposed, full.T)
        label = "PUTS (stride)" if use_stride else "PUT (element rows)"
        n_puts = machine.trace.count(EventKind.PUT)
        plus = simulate(machine.trace, ap1000_plus_params()).elapsed_us
        slow = simulate(machine.trace, ap1000_params()).elapsed_us
        print(f"stride={str(use_stride):5s} transpose correct: {ok};  "
              f"{label}: {n_puts:5d} messages;  "
              f"AP1000+ {plus:9.1f} us, AP1000 {slow:11.1f} us")
    print("\none stride command per destination replaces one message per "
          "row segment;\nsection 4.1: 'the overhead of stride data "
          "transfer is the cost of a few store instructions.'")


if __name__ == "__main__":
    main()
