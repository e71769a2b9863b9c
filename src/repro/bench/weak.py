"""Weak-scaling study: Figure 8 extended to 256-4096 cells.

The paper evaluates 64 cells (Table 1 tops out at 1024).  The sharded
multiprocess engine (:mod:`repro.machine.sharded`) makes machines past
the product catalogue tractable, so this study re-runs the Figure 8
methodology — functional trace, MLSim replay under all three machine
models, normalized time breakdown — at P in {256, 1024, 4096} cells
with the per-cell problem held constant (weak scaling):

* **EP** generates a fixed 128 pairs per cell (the NPB class-scaling
  convention), the pure-computation end of Figure 8;
* **RingShift** circulates one token a full lap (one hop per cell),
  the latency-bound end — its breakdown is almost entirely idle time,
  which is the figure's point at scale.

Each point runs twice, serial batched and sharded, and the study
*asserts byte-identical traces and memories* before replaying — the
4096-cell row is also the standing proof that the ``extended=True``
configuration escape hatch works end to end (4096 cells exceeds the
official ceiling; the config stays strict otherwise).  The engine
speedup recorded per row is serial CPU time over the sharded critical
path (max worker CPU + replay), the same metric the perf lane gates.

The committed artifact at the repo root (``BENCH_weak_scaling.json``)
is refreshed with ``repro bench weak`` (see EXPERIMENTS.md).
"""

from __future__ import annotations

import gc
import os
import platform
import time
from typing import Any, Callable

from repro.apps import ep
from repro.apps.latency import ring_shift_program
from repro.core.errors import ConfigurationError
from repro.faults.chaos import memory_digest, trace_digest
from repro.machine.config import MAX_CELLS, MachineConfig
from repro.machine.machine import Machine
from repro.mlsim.simulator import simulate_models

WEAK_SCHEMA = "repro-bench-weak-v1"

#: Machine sizes of the study.  256 and 1024 are official Table 1
#: configurations; 4096 requires ``extended=True``.
WEAK_POINTS = (256, 1024, 4096)

#: Worker processes for the sharded side of every point.
WEAK_SHARDS = 4

#: EP pairs generated per cell (held constant across machine sizes).
LOG2_PAIRS_PER_CELL = 7

Log = Callable[[str], None]


def weak_configs(cells: int) -> dict[str, dict[str, Any]]:
    """Per-app parameters at ``cells``, per-cell work held constant."""
    return {
        "EP": {"log2_pairs": cells.bit_length() - 1 + LOG2_PAIRS_PER_CELL},
        "RingShift": {"hops": cells},
    }


_PROGRAMS = {"EP": ep.program, "RingShift": ring_shift_program}


def _machine(cells: int, **overrides: Any) -> Machine:
    return Machine(MachineConfig(
        num_cells=cells,
        extended=cells > MAX_CELLS,
        allow_nonstandard=False,
        **overrides,
    ))


def _run_point(app: str, cells: int, params: dict[str, Any],
               shards: int, log: Log) -> dict[str, Any]:
    program = _PROGRAMS[app]

    # Machines are cycle-heavy (machine <-> cells <-> contexts) and
    # hold gigabytes of virtual cell DRAM, so prior rows linger until a
    # cyclic-GC pass.  Collect before forking workers — a bloated
    # parent heap slows every fork and every GC pass in the children.
    gc.collect()
    serial = _machine(cells, shards=1)
    w0, c0 = time.perf_counter(), time.process_time()
    serial.run(program, **params)
    serial_cpu = time.process_time() - c0
    serial_wall = time.perf_counter() - w0
    digest = trace_digest(serial.trace)
    mem = memory_digest(serial)

    del serial
    gc.collect()
    sharded = _machine(cells, shards=shards)
    w0 = time.perf_counter()
    sharded.run(program, **params)
    sharded_wall = time.perf_counter() - w0
    if trace_digest(sharded.trace) != digest \
            or memory_digest(sharded) != mem:
        raise RuntimeError(
            f"sharded {app} run diverged from serial at P={cells}")
    report = sharded.shard_report
    critical = report["critical_path_s"]

    # Replay mutates (coalesces) the trace, so it runs strictly after
    # the byte-identity digests above.
    models = simulate_models(sharded.trace)
    plus, fast = models.table2_row()
    log(f"{app} P={cells}: serial CPU {serial_cpu:.2f}s, critical "
        f"path {critical:.2f}s ({serial_cpu / critical:.1f}x); "
        f"AP1000+ {plus:.1f}x over AP1000")
    return {
        "app": app,
        "num_cells": cells,
        "params": params,
        "extended": cells > MAX_CELLS,
        "shards": report["shards"],
        "events": sharded.trace.total_events,
        "identical": True,
        "serial_cpu_s": serial_cpu,
        "serial_wall_s": serial_wall,
        "critical_path_s": critical,
        "sharded_wall_s": sharded_wall,
        "worker_busy_s": report["worker_busy_s"],
        "replay_s": report["replay_s"],
        "engine_speedup": serial_cpu / critical,
        "mlsim": {
            "elapsed_us": {
                "ap1000": models.ap1000.elapsed_us,
                "ap1000-fast": models.ap1000_fast.elapsed_us,
                "ap1000+": models.ap1000_plus.elapsed_us,
            },
            "speedup_over_ap1000": {"ap1000+": plus, "ap1000-fast": fast},
            "figure8": models.figure8_bars(),
        },
    }


def run_weak(
    *,
    points: tuple[int, ...] = WEAK_POINTS,
    shards: int = WEAK_SHARDS,
    apps: tuple[str, ...] | None = None,
    log: Log | None = None,
) -> dict[str, Any]:
    """Run the study and return the artifact document."""
    from repro.bench.perf import _utc_now

    if shards < 2:
        raise ConfigurationError(
            "the weak-scaling study compares the sharded engine with the "
            f"serial one; it needs at least 2 shards, got {shards}")
    log = log or (lambda message: None)
    rows = []
    for cells in points:
        configs = weak_configs(cells)
        for app, params in configs.items():
            if apps is not None and app not in apps:
                continue
            rows.append(_run_point(app, cells, params, shards, log))
    return {
        "schema": WEAK_SCHEMA,
        "created_utc": _utc_now(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "study": {
            "points": list(points),
            "shards": shards,
            "log2_pairs_per_cell": LOG2_PAIRS_PER_CELL,
            "byte_identity": "asserted per row (trace + memory digests)",
        },
        "rows": rows,
    }
