#!/usr/bin/env python3
"""Communication registers, distributed shared memory, and the two
reduction engines of section 4.5.

* scalar reductions run the cross-over (butterfly) schedule over the
  hardware communication registers — stores set p-bits, blocking loads
  clear them — carrying doubles in 8-byte register pairs;
* vector reductions pipeline the vector around the ring buffers with
  SEND/RECEIVE, combining *in place* (no copy out of the ring);
* plain remote load/store rides the shared half of the 36-bit physical
  address space.

Run:  python examples/shared_memory_reduction.py
"""

import numpy as np

from repro import Machine, MachineConfig
from repro.lang.reductions import CommRegisterReducer, ring_vector_reduce

CELLS = 6   # deliberately not a power of two: exercises fold-in/out
VLEN = 10


def program(ctx):
    # --- scalar reduction over communication registers -----------------
    reducer = CommRegisterReducer(ctx)
    total = yield from reducer.reduce(float(ctx.pe + 1))
    biggest = yield from reducer.reduce(float(ctx.pe) * 1.5, op="max")

    # --- vector reduction over ring buffers ---------------------------
    vector = np.full(VLEN, float(ctx.pe))
    vsum = yield from ring_vector_reduce(ctx, vector)

    # --- distributed shared memory: remote load/store ------------------
    cellinfo = ctx.alloc(CELLS)
    cellinfo.data[:] = 0.0
    yield from ctx.barrier()
    # Every cell posts its id into slot `pe` of cell 0's array.
    ctx.remote_store_word(0, cellinfo, ctx.pe, float(ctx.pe * 11))
    yield from ctx.barrier()
    mirror = ctx.remote_load_word(0, cellinfo, (ctx.pe + 1) % CELLS)
    yield from ctx.barrier()
    return total, biggest, float(vsum[0]), mirror


def main() -> None:
    machine = Machine(MachineConfig(num_cells=CELLS))
    results = machine.run(program)
    total, biggest, vsum, _ = results[0]
    print(f"cells: {CELLS} (non-power-of-two butterfly)")
    print(f"scalar sum over comm registers : {total:.0f} "
          f"(expect {sum(range(1, CELLS + 1))})")
    print(f"scalar max over comm registers : {biggest:.1f} "
          f"(expect {1.5 * (CELLS - 1)})")
    print(f"ring vector sum, element 0     : {vsum:.0f} "
          f"(expect {sum(range(CELLS))})")
    print("remote loads returned:",
          [f"{r[3]:.0f}" for r in results])

    regs = machine.hw_cells[0].mc.registers
    print(f"\nhardware counters, cell 0: comm-register stores={regs.stores} "
          f"loads={regs.loads} p-bit retries={regs.retries}")
    ring = machine.rings[0]
    print(f"ring buffer, cell 0: deposits={ring.deposits} "
          f"copies-out={ring.copies_out} (vector reduction executes "
          f"directly from the ring)")


if __name__ == "__main__":
    main()
