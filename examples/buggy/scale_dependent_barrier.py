"""Seeded bug: a collective whose membership silently assumes P <= 4.

The program reduces a partial sum on a hard-coded "leader" set of the
first four cells.  At the fixture's own size (``CELLS = 4``) every cell
is a leader, so the recorded trace is perfectly clean — the dynamic
checker can never see this bug.  At P = 16 or 64, cells 4..P-1 skip the
reduction and the program deadlocks.  Only the static analyzer, which
concolically executes the program at several machine sizes, reports the
divergence (``COMM-DIVERGENCE`` at P = 16, 64 — and *not* at P = 4).
No lint rule sees it either: which cells reach the reduction depends
on P, and only a run at a size where some cells skip it shows that.
"""

from __future__ import annotations

from repro.machine.config import MachineConfig
from repro.machine.machine import Machine

NAME = "scale_dependent_barrier"
CELLS = 4
#: Dynamically the fixture is clean at its own size: the dynamic gate
#: expects nothing of it.
EXPECT: set[str] = set()
#: The static analyzer sees the divergence at the larger sizes.
EXPECT_STATIC = {"COMM-DIVERGENCE"}
#: Checked at the default scale set: clean at 4, diverging at 16/64.
STATIC_SCALES = (4, 16, 64)

LEADERS = 4  # BUG: hard-coded; only correct when P <= 4


def program(ctx):
    total = ctx.alloc(8)
    total.data[:] = float(ctx.pe + 1)
    yield from ctx.barrier()
    if ctx.pe < LEADERS:
        # BUG: at P > 4 the other cells never arrive at this ungrouped
        # reduction, so it waits for the whole world forever.
        total.data[0] = yield from ctx.gop(float(total.data[0]), "sum")
    yield from ctx.barrier()
    return float(total.data[0])


def build_trace():
    machine = Machine(MachineConfig(
        num_cells=CELLS, memory_per_cell=1 << 20, sanitize=True))
    machine.run(program)
    return machine.trace
