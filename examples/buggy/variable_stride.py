"""Seeded bug: stride patterns the compiler cannot lower to hardware.

Each cell PUTs around a ring with an ``ElementStride`` whose skip is
the *loop variable* — a different stride every iteration, so no single
1-D hardware stride transfer describes the pattern (``COMM-STRIDE``).
The closing ``finish_puts`` is called without ``yield from``, so the
completion it was supposed to provide silently never happens
(``SPMD002``).  Both are static findings; the program itself runs (the
same-channel T-net FIFO keeps one cell's own PUTs ordered).
"""

from __future__ import annotations

from repro.core.stride import ElementStride
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine

NAME = "variable_stride"
CELLS = 4
EXPECT = {"SPMD002"}
#: The analyzer's run observes two distinct remote byte skips at the
#: same put_stride call site — no name heuristics involved.
EXPECT_STATIC = {"COMM-STRIDE"}


def program(ctx):
    dest = ctx.alloc(16)
    src = ctx.alloc(16)
    src.data[:] = float(ctx.pe)
    right = (ctx.pe + 1) % ctx.num_cells
    flag = ctx.alloc_flag()
    yield from ctx.barrier()
    for i in range(1, 3):
        # BUG: the stride depends on the loop variable — this can never
        # become one hardware stride transfer per neighbour.
        stride = ElementStride(1, 4, i + 1)
        ctx.put_stride(right, dest, src, stride, stride, recv_flag=flag)
    # BUG: not driven with `yield from`; the generator is dropped and
    # the PUT completion never actually happens.
    ctx.finish_puts()
    yield from ctx.barrier()


def build_trace():
    machine = Machine(MachineConfig(
        num_cells=CELLS, memory_per_cell=1 << 20, sanitize=True))
    machine.run(program)
    return machine.trace
