"""Seeded bug: a barrier under a cell-dependent branch.

All cells pass the first barrier, then every cell except cell 0 arrives
at a second one.  The barrier network counts arrivals, so the second
barrier never completes.  The dynamic checker reports
``BARRIER-MISMATCH`` naming the cells that arrived and the cells that
finished without arriving; the static analyzer reports the same
divergence (``COMM-DIVERGENCE``) at every machine size it runs.
"""

from __future__ import annotations

import contextlib

from repro.core.errors import DeadlockError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine

NAME = "mismatched_barrier"
CELLS = 4
EXPECT = {"BARRIER-MISMATCH"}
#: Cell 0's collective sequence diverges from the rest of the world
#: group at every machine size.
EXPECT_STATIC = {"COMM-DIVERGENCE"}


def program(ctx):
    yield from ctx.barrier()
    if ctx.pe != 0:
        # BUG: cell 0 never arrives; the other cells wait forever.
        yield from ctx.barrier()


def build_trace():
    machine = Machine(MachineConfig(
        num_cells=CELLS, memory_per_cell=1 << 20, sanitize=True))
    # The deadlock is the point of the fixture.
    with contextlib.suppress(DeadlockError):
        machine.run(program)
    return machine.trace
