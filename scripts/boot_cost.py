#!/usr/bin/env python
"""Host cost of starting a process and of booting a machine, per cell
and by part.

First the start-up table: milliseconds a fresh interpreter spends in
``import numpy``, and above it in the six imports of a benchmark child
(``benchmarks/e2e/child.py``) and in ``import repro.cli``, each the
median over ``--repeats`` spawns, with the ``repro`` modules each loads.
Bytecode is cached in a temporary directory (a warm-up spawn fills it),
so the table reads what an import costs a user, not a compile.

Then microseconds of wall clock per cell (minimum over ``--repeats`` builds,
each dropped before the next) for the parts a machine boots in order,
each timed as the difference to the build one step smaller:

    DRAM         the zeroed buffers (``zeroed_dram``) and their ``CellMemory``
    cell         ``boot_cells`` on a T-net (MC and page tables, cache, MSC+
                 with five queues and two DMA engines), minus DRAM
    wiring       ``Machine(n)``, minus ``boot_cells`` on a T-net (rings,
                 ports, spill hooks, allocator and scheduler tables)
    context      one ``CellContext`` per cell, what ``Machine.run`` adds

and the gc-tracked objects one cell leaves alive in a built machine.
The cycle collector runs as it does for a user: its passes over those
objects are part of every column, and beside them are the collections
one ``Machine(n)`` runs per generation and the milliseconds they take
(``gc.callbacks``; a build from a collected heap, minimum of the
milliseconds over ``--repeats`` builds).

    python scripts/boot_cost.py [--repeats N] [--json FILE]

(``PYTHONPATH`` set to another checkout's ``src`` measures that commit.)
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WIDTHS = (64, 1024, 4096)
PARTS = ("DRAM", "cell", "wiring", "context")

#: What each start-up row times, and what it imports first, untimed.
STARTUP = {
    "import numpy": ("", "import numpy"),
    "child imports": ("import numpy", """
from repro.apps.workloads import workload
from repro.bench.cache import TraceCache, load_cached_columns
from repro.faults.chaos import memory_digest, trace_digest
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import preset
from repro.trace.io import load_trace, save_columns_npz, save_trace_v2
"""),
    "import repro.cli": ("import numpy", "import repro.cli"),
}

#: Run in each spawn: ``before`` untimed, ``timed`` timed; prints the
#: milliseconds and the number of ``repro`` modules loaded.
SPAWN = """
import sys, time
{before}
start = time.perf_counter()
{timed}
ms = (time.perf_counter() - start) * 1e3
print(ms, sum(name.split(".")[0] == "repro" for name in sys.modules))
"""


def startup(repeats: int) -> list[dict]:
    """One row per ``STARTUP`` entry: median milliseconds over
    ``repeats`` fresh interpreters, spawned round-robin."""
    src = Path(importlib.util.find_spec("repro").origin).parents[1]
    with tempfile.TemporaryDirectory() as pycache:
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        env.update(PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=pycache)

        def spawn(before: str, timed: str) -> tuple[float, int]:
            code = SPAWN.format(before=before, timed=timed)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 check=True, capture_output=True, text=True)
            ms, modules = out.stdout.split()
            return float(ms), int(modules)

        for before, timed in STARTUP.values():
            spawn(before, timed)                 # fills the bytecode cache
        samples: dict[str, list[float]] = {name: [] for name in STARTUP}
        modules = {}
        for _ in range(repeats):
            for name, (before, timed) in STARTUP.items():
                ms, modules[name] = spawn(before, timed)
                samples[name].append(ms)
    return [{"import": name, "ms": round(statistics.median(samples[name]), 1),
             "repro_modules": modules[name]} for name in STARTUP]


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


def collections(build, repeats: int) -> tuple[list[int], float]:
    """Collections per generation that one ``build()`` from a collected
    heap runs, and the fewest milliseconds they took over ``repeats``
    builds."""
    counts: list[int] = []
    spent = started = 0.0

    def note(phase: str, info: dict) -> None:
        nonlocal spent, started
        if phase == "start":
            started = time.perf_counter()
        else:
            counts[info["generation"]] += 1
            spent += time.perf_counter() - started

    best_ms = float("inf")
    for _ in range(repeats):
        gc.collect()
        counts[:] = [0, 0, 0]
        spent = 0.0
        gc.callbacks.append(note)
        try:
            built = build()
        finally:
            gc.callbacks.remove(note)
        best_ms = min(best_ms, spent * 1e3)
        del built
    return counts, best_ms


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
    del machine
    generations, gc_ms = collections(lambda: Machine(config), repeats)
    parts = [steps[0], *(b - a for a, b in zip(steps, steps[1:])), context]
    return {
        "cells": cells,
        "us_per_cell": {name: round(part / cells * 1e6, 2)
                        for name, part in zip(PARTS, parts)},
        # Seconds of the three nested builds (the last is ``Machine(n)``)
        # and of the contexts, as timed; the columns above are their
        # differences.
        "build_s": [round(step, 5) for step in (*steps, context)],
        "gc_objects_per_cell": round(objects / cells, 1),
        # What the collector ran in one ``Machine(n)``: collections of
        # generations 0, 1 and 2, and their milliseconds.
        "gc_collections": generations,
        "gc_ms": round(gc_ms, 2),
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
    print(f"start-up: ms in a fresh interpreter, median of {args.repeats} "
          "spawns (rows 2 and 3 above numpy); repro modules loaded")
    started = startup(args.repeats)
    for row in started:
        print(f"  {row['import']:<16} {row['ms']:>8.1f} "
              f"{row['repro_modules']:>4}")
    print()
    print(f"us per cell by part, min of {args.repeats} builds; "
          "Machine(n) in seconds; gc-tracked objects per cell; the "
          "collections of one Machine(n) per generation and their ms")
    print(f"{'cells':>6} " + " ".join(f"{name:>12}" for name in PARTS)
          + f" {'Machine s':>10} {'gc objects':>11} {'gc 0/1/2':>10}"
          + f" {'gc ms':>7}")
    rows = []
    for cells in WIDTHS:
        row = measure(cells, args.repeats)
        print(f"{cells:>6} "
              + " ".join(f"{row['us_per_cell'][name]:>12.2f}"
                         for name in PARTS)
              + f" {row['build_s'][2]:>10.4f} {row['gc_objects_per_cell']:>11.1f}"
              + f" {'/'.join(map(str, row['gc_collections'])):>10}"
              + f" {row['gc_ms']:>7.2f}")
        rows.append(row)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"repeats": args.repeats, "startup": started,
                       "rows": rows}, out, indent=2)
            out.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
