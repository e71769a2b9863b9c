#!/usr/bin/env python3
"""Quickstart: the PUT/GET interface in five minutes.

Builds a small functional AP1000+, runs an SPMD program that exercises
the paper's core mechanisms — one-sided PUT with combined flag update,
GET, the GET-to-address-0 acknowledge idiom, barrier synchronization,
and global reductions — then replays the recorded trace through MLSim
under all three machine models and prints the speedups.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Machine, MachineConfig
from repro.mlsim.simulator import simulate_models

CELLS = 8
N = 64


def program(ctx):
    """Each cell fills a vector, PUTs it to its right neighbour, GETs one
    element back from its left, and joins a global sum."""
    mine = ctx.alloc(N)              # symmetric arrays: same address on
    inbox = ctx.alloc(N)             # every cell, so PUT can target them
    peek = ctx.alloc(1)
    got_data = ctx.alloc_flag()      # incremented by the *sender's* PUT
    got_peek = ctx.alloc_flag()

    mine.data[:] = ctx.pe + np.arange(N)
    ctx.compute_flops(5 * N)         # charge the fill to the timing model

    right = (ctx.pe + 1) % ctx.num_cells
    left = (ctx.pe - 1) % ctx.num_cells

    # --- one-sided write with combined flag update --------------------
    # Non-blocking: the MSC+ gathers, sends, and the *receiver's* MC
    # increments its instance of `got_data` when the receive DMA is done.
    ctx.put(right, inbox, mine, recv_flag=got_data, ack=True)

    # --- wait for our own inbox (filled by the left neighbour) --------
    yield from ctx.flag_wait(got_data, 1)
    assert inbox.data[0] == left

    # --- the acknowledge idiom -----------------------------------------
    # finish_puts() issues/awaits the GET-to-address-0 acknowledgments:
    # static T-net routing means the reply proves our PUT was received.
    yield from ctx.finish_puts()
    yield from ctx.barrier()

    # --- one-sided read ---------------------------------------------------
    ctx.get(left, mine, peek, count=1, remote_offset=N - 1,
            recv_flag=got_peek)
    yield from ctx.flag_wait(got_peek, 1)
    assert peek.data[0] == left + N - 1

    # --- collectives ----------------------------------------------------
    total = yield from ctx.gop(float(mine.data.sum()))
    vector = yield from ctx.vgop(mine.data[:4])
    yield from ctx.barrier()
    return total, vector.tolist()


def main() -> None:
    machine = Machine(MachineConfig(num_cells=CELLS))
    results = machine.run(program)
    total, vector = results[0]
    print(f"machine: {CELLS} cells "
          f"({machine.topology.width}x{machine.topology.height} torus)")
    print(f"global sum agreed by all cells: {total:.0f}")
    print(f"vector reduction head: {vector}")
    print(f"trace: {machine.trace.total_events} probe events, "
          f"{machine.tnet.delivered_count} packets delivered")

    print("\nMLSim replay (same trace, three machine models):")
    cmp = simulate_models(machine.trace)
    for result in (cmp.ap1000, cmp.ap1000_fast, cmp.ap1000_plus):
        print(f"  {result.model_name:18s} {result.elapsed_us:10.1f} us "
              f"(exec {result.mean_execution:7.1f}, "
              f"overhead {result.mean_overhead:7.1f}, "
              f"idle {result.mean_idle:7.1f})")
    plus, fast = cmp.table2_row()
    print(f"\nspeedup over the AP1000:  AP1000+ {plus:.2f}x,  "
          f"software-handled model {fast:.2f}x")
    print("hardware PUT/GET wins." if plus > fast else "unexpected!")


if __name__ == "__main__":
    main()
