#!/usr/bin/env python3
"""Overlap areas in action: distributed Jacobi diffusion (Figure 2).

A 2-D temperature field is block-distributed along its second dimension
with a one-column overlap area, exactly the layout of the paper's
Figure 2.  Each iteration refreshes the overlap with OVERLAP FIX —
strided PUTs, because a boundary *column* is one element per row — then
relaxes locally.  The distributed result is checked against a sequential
numpy reference, and the stride/no-stride message counts are compared.

Run:  python examples/stencil_overlap.py
"""

import numpy as np

from repro import Machine, MachineConfig
from repro.lang.runtime import VPPRuntime
from repro.trace.events import EventKind

CELLS = 8
N = 48
ITERS = 20


def program(ctx, use_stride=True):
    rt = VPPRuntime(ctx, use_stride=use_stride)
    grid = rt.global_array((N, N), dist_axis=1, overlap=1)

    # Dirichlet boundary: hot left edge, cold elsewhere.
    interior = grid.interior()
    interior[:] = 0.0
    if grid.owns(0):
        grid.block.data[:, grid.to_local(0)] = 100.0
    yield from ctx.barrier()

    for _ in range(ITERS):
        rt.overlap_fix(grid)          # strided halo PUTs + Ack & Barrier
        yield from rt.movewait()
        lo = max(grid.lo, 1)
        hi = min(grid.hi, N - 1)
        if hi > lo:
            c0 = grid.to_local(lo)
            view = grid.block.data[:, c0 - 1: c0 + (hi - lo) + 1]
            centre = view[1:-1, 1:-1]
            new = 0.25 * (view[:-2, 1:-1] + view[2:, 1:-1]
                          + view[1:-1, :-2] + view[1:-1, 2:])
            centre[...] = new
            ctx.compute_flops(4.0 * new.size)
        yield from ctx.barrier()
    return grid.interior().copy()


def reference():
    grid = np.zeros((N, N))
    grid[:, 0] = 100.0
    for _ in range(ITERS):
        inner = 0.25 * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                        + grid[1:-1, :-2] + grid[1:-1, 2:])
        grid[1:-1, 1:-1] = inner
    return grid


def run(use_stride: bool):
    machine = Machine(MachineConfig(num_cells=CELLS))
    results = machine.run(program, use_stride=use_stride)
    field = np.hstack([r for r in results if r.size])
    return machine, field


def main() -> None:
    ref = reference()
    for use_stride in (True, False):
        machine, field = run(use_stride)
        ok = np.allclose(field[1:-1, 1:-1], ref[1:-1, 1:-1], atol=1e-12)
        puts = machine.trace.count(EventKind.PUT)
        block = machine.trace.block()
        stride_puts = int(np.count_nonzero(
            (block["kind"] == EventKind.PUT) & block["stride"]))
        mode = "stride " if use_stride else "element"
        print(f"[{mode}] field matches numpy: {ok};  halo PUTs: {puts:5d} "
              f"({stride_puts} strided; {machine.trace.total_events} "
              f"trace events)")
    print(f"\nwithout hardware stride support the same halo refresh costs "
          f"{N}x the messages at 1/{N}th the size -- the TOMCATV effect "
          f"of section 5.4.")


if __name__ == "__main__":
    main()
