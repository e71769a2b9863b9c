#!/usr/bin/env python
"""Host cost of booting a machine, per cell and by part.

Microseconds of wall clock per cell (minimum over ``--repeats`` builds,
each dropped before the next) for the parts a machine boots in order,
each timed as the difference to the build one step smaller:

    DRAM         the zeroed buffers (``zeroed_dram``) and their ``CellMemory``
    MC + tables  ``boot_cells`` without a T-net, minus DRAM
    MSC+         ``boot_cells`` on a T-net (cache, five queues, two DMA
                 engines), minus the same without
    wiring       ``Machine(n)``, minus ``boot_cells`` on a T-net (rings,
                 ports, spill hooks, allocator and scheduler tables)
    context      one ``CellContext`` per cell, what ``Machine.run`` adds

and the gc-tracked objects one cell leaves alive in a built machine.
The cycle collector runs as it does for a user: its passes over those
objects are part of every column.

    python scripts/boot_cost.py [--json FILE]

(``PYTHONPATH`` set to another checkout's ``src`` measures that commit.)
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import sys
import time
from pathlib import Path

WIDTHS = (64, 1024, 4096)
PARTS = ("DRAM", "MC + tables", "MSC+", "wiring", "context")


def best(builds, repeats: int) -> list[float]:
    """Minimum seconds of each of ``builds``, taken round-robin so a
    busy spell of the host falls on all of them alike; what a build
    made is dropped, and collected, outside the timed region."""
    seconds = [float("inf")] * len(builds)
    for _ in range(repeats):
        for i, build in enumerate(builds):
            start = time.perf_counter()
            built = build()
            seconds[i] = min(seconds[i], time.perf_counter() - start)
            del built
            gc.collect()
    return seconds


def measure(cells: int, repeats: int) -> dict:
    from repro import Machine, MachineConfig
    from repro.hardware.cell import boot_cells
    from repro.hardware.memory import CellMemory, zeroed_dram
    from repro.machine.program import CellContext
    from repro.network.tnet import TNet
    from repro.network.topology import TorusTopology

    config = MachineConfig(num_cells=cells, shards=1)
    size = config.memory_per_cell
    tnet = TNet(TorusTopology.for_cells(cells))
    steps = best((
        lambda: [CellMemory(size, dram) for dram in zeroed_dram(cells, size)],
        lambda: boot_cells(cells, None, size),
        lambda: boot_cells(cells, tnet, size),
        lambda: Machine(config),
    ), repeats)
    machine = Machine(config)
    context, = best((
        lambda: [CellContext(machine, pe) for pe in range(cells)],
    ), repeats)
    del machine
    gc.collect()
    before = len(gc.get_objects())
    machine = Machine(config)
    objects = len(gc.get_objects()) - before
    parts = [steps[0], *(b - a for a, b in zip(steps, steps[1:])), context]
    return {
        "cells": cells,
        "us_per_cell": {name: round(part / cells * 1e6, 2)
                        for name, part in zip(PARTS, parts)},
        # Seconds of the four nested builds (the last is ``Machine(n)``)
        # and of the contexts, as timed; the columns above are their
        # differences.
        "build_s": [round(step, 5) for step in (*steps, context)],
        "gc_objects_per_cell": round(objects / cells, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--json", metavar="FILE",
                        help="also write the table as JSON to FILE")
    args = parser.parse_args()

    if importlib.util.find_spec("repro") is None:
        # Not installed and no PYTHONPATH provides it: this checkout's.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(f"us per cell by part, min of {args.repeats} builds; "
          "Machine(n) in seconds; gc-tracked objects per cell")
    print(f"{'cells':>6} " + " ".join(f"{name:>12}" for name in PARTS)
          + f" {'Machine s':>10} {'gc objects':>11}")
    rows = []
    for cells in WIDTHS:
        row = measure(cells, args.repeats)
        print(f"{cells:>6} "
              + " ".join(f"{row['us_per_cell'][name]:>12.2f}"
                         for name in PARTS)
              + f" {row['build_s'][3]:>10.4f} {row['gc_objects_per_cell']:>11.1f}")
        rows.append(row)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"repeats": args.repeats, "rows": rows}, out, indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
