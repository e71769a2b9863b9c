"""Perf lane: the measurements behind the CI performance job.

The batched SPMD scheduler and the sharded engine exist for throughput,
so their speedups are regression-tested like any other output.
``repro bench perf`` runs the micro grid twice through the normal
benchmark runner (a first pass that pays whatever the trace cache does
not already hold, then a cache-hit pass, whose artifacts must agree byte
for byte), then measures two controlled A/B speedups:

* **functional** — the reference run-every-cell-every-round SPMD
  scheduler against the batched wake-set scheduler on a long blocking
  chain (``RingShift``), where scheduler overhead dominates;
* **sharded** — the serial engine against the sharded one on its
  critical path (see :data:`SHARDED_AB`).

Replay speed has no ratio here: there is one replay engine, and its
wall-clock is ``benchmarks/e2e``'s ``replay_sweep`` workload.

Both A/B passes time identical work under ``gc`` control and keep the
minimum of ``reps`` repetitions, so the ratios are stable even on noisy
runners.  The gate is expressed in **ratios** (speedups), not absolute
wall-clock: ratios compare the same host against itself and therefore
transfer across CI hardware generations, while absolute walls are
recorded in the artifact for humans but never gated on.  A checked-in
baseline (``benchmarks/perf_baseline.json``) pins the expected ratios;
a run fails if any speedup falls below its hard floor or drops more
than ``baseline_tolerance_pct`` below the baseline ratio.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

from repro.bench.cache import TraceCache, code_version
from repro.bench.grid import ALL_PRESETS, micro_specs
from repro.bench.runner import run_bench
from repro.bench.schema import results_bytes

PERF_SCHEMA = "repro-perf-v1"

#: Hard floors: the refactor's contract, independent of any baseline.
FUNCTIONAL_MIN_SPEEDUP = 3.0
SHARDED_MIN_SPEEDUP = 2.0

#: A speedup may drift this far below the checked-in baseline ratio
#: before the lane fails (noise headroom on shared CI runners).
BASELINE_TOLERANCE_PCT = 25.0

#: The functional A/B workload: a 256-cell ring where every hop blocks
#: on its neighbour, so the reference scheduler's sweep over all cells
#: per round is nearly all wasted work.  The program costs the host
#: per trace event (a cell walks laps, not hops), so the part both
#: sides share is small and the ratio is the schedulers'.
FUNCTIONAL_AB = ("RingShift", {"num_cells": 256, "hops": 4096})

#: The sharded A/B workload: EP at 1024 cells with enough pairs per
#: cell that per-cell computation dominates scheduler overhead — the
#: regime process-level parallelism exists for.  The sharded side is
#: scored on its **critical path** (slowest worker's CPU time plus the
#: parent's serial replay), the modeled makespan on an unloaded
#: machine: CI runners pack all workers onto one or two cores, so
#: wall-clock there measures core contention, not the engine.
SHARDED_AB = ("EP", {"num_cells": 1024, "log2_pairs": 20})
SHARDED_AB_SHARDS = 4

Log = Callable[[str], None]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class PerfReport:
    """Outcome of one perf-lane run."""

    document: dict[str, Any]
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


def _timed_min(fn: Callable[[], None], reps: int) -> float:
    """Minimum wall-clock of ``reps`` calls, with the collector parked
    so a background GC pass cannot land inside a timed region."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(reps):
            gc.collect()
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def _measure_functional(reps: int, log: Log) -> dict[str, Any]:
    """A/B the SPMD schedulers on the blocking-chain workload."""
    from repro.apps.latency import run_ring_shift
    from repro.machine.machine import Machine

    app, config = FUNCTIONAL_AB

    def run() -> None:
        run_ring_shift(**config)

    walls = {"batched": _timed_min(run, reps)}
    # The slow side is the resume-counting loop on an input the
    # wake-set loop serves; no option selects that, so substitute the
    # loop for the duration of the timing.
    wake_set = Machine._run_batched
    Machine._run_batched = Machine._run_reference
    try:
        walls["reference"] = _timed_min(run, reps)
    finally:
        Machine._run_batched = wake_set
    for mode, wall in walls.items():
        log(f"functional {app} [{mode}]: {wall:.2f}s")
    return {
        "app": app,
        "config": config,
        "reps": reps,
        "batched_s": walls["batched"],
        "reference_s": walls["reference"],
        "speedup": walls["reference"] / walls["batched"],
    }


def _measure_sharded(reps: int, log: Log) -> dict[str, Any]:
    """A/B the serial batched engine against the sharded engine.

    Serial side: CPU time of ``Machine.run`` under the batched
    scheduler.  Sharded side: the run's critical path — ``max`` worker
    CPU time plus the parent's install+replay CPU time — with the same
    byte-identical output (asserted here via trace digests).  Wall
    clocks land in the artifact for humans; the gated ratio is
    CPU-based so it transfers across runner core counts.
    """
    from repro.apps import ep
    from repro.faults.chaos import trace_digest
    from repro.machine.config import MachineConfig
    from repro.machine.machine import Machine

    app, config = SHARDED_AB
    shards = SHARDED_AB_SHARDS
    cells = config["num_cells"]
    params = {k: v for k, v in config.items() if k != "num_cells"}

    serial_cpu = float("inf")
    serial_wall = float("inf")
    digest = None
    for _ in range(reps):
        machine = Machine(MachineConfig(num_cells=cells, shards=1))
        w0, c0 = time.perf_counter(), time.process_time()
        machine.run(ep.program, **params)
        serial_cpu = min(serial_cpu, time.process_time() - c0)
        serial_wall = min(serial_wall, time.perf_counter() - w0)
        digest = trace_digest(machine.trace)

    critical = float("inf")
    sharded_wall = float("inf")
    report = None
    for _ in range(reps):
        machine = Machine(MachineConfig(num_cells=cells, shards=shards))
        machine.run(ep.program, **params)
        if trace_digest(machine.trace) != digest:
            raise RuntimeError(
                "sharded perf run diverged from the serial trace")
        if machine.shard_report["critical_path_s"] < critical:
            critical = machine.shard_report["critical_path_s"]
            report = machine.shard_report
        sharded_wall = min(sharded_wall,
                           machine.shard_report["wall_s"])

    assert report is not None
    wall_ratio = serial_wall / sharded_wall
    log(f"sharded {app} (P={cells}, {shards} shards): serial CPU "
        f"{serial_cpu:.2f}s, critical path {critical:.2f}s "
        f"({serial_cpu / critical:.1f}x); wall {serial_wall:.2f}s vs "
        f"{sharded_wall:.2f}s ({wall_ratio:.1f}x, not gated)")
    return {
        "app": app,
        "config": config,
        "shards": shards,
        "reps": reps,
        "serial_cpu_s": serial_cpu,
        "serial_wall_s": serial_wall,
        "critical_path_s": critical,
        "sharded_wall_s": sharded_wall,
        "worker_busy_s": report["worker_busy_s"],
        "replay_s": report["replay_s"],
        "speedup": serial_cpu / critical,
        "wall_ratio": wall_ratio,
    }


def compare_to_baseline(
    document: dict[str, Any],
    baseline: dict[str, Any],
    tolerance_pct: float = BASELINE_TOLERANCE_PCT,
) -> list[str]:
    """Failures where a current speedup fell more than ``tolerance_pct``
    below the baseline's ratio (absolute walls are never compared)."""
    failures = []
    floor_factor = 1.0 - tolerance_pct / 100.0
    pairs = [
        ("functional scheduler",
         document["functional"]["speedup"],
         baseline["speedups"]["functional"]),
    ]
    if "sharded" in baseline["speedups"]:
        pairs.append(("sharded engine",
                      document["sharded"]["speedup"],
                      baseline["speedups"]["sharded"]))
    for name, current, base in pairs:
        if current < base * floor_factor:
            failures.append(
                f"{name} speedup {current:.1f}x is more than "
                f"{tolerance_pct:g}% below baseline {base:.1f}x")
    return failures


def baseline_from_report(document: dict[str, Any]) -> dict[str, Any]:
    """The checked-in baseline shape: ratios to gate on, plus the walls
    and host of the recording run as provenance (informational only)."""
    return {
        "schema": PERF_SCHEMA + "-baseline",
        "recorded_utc": document["created_utc"],
        "host": document["host"],
        "speedups": {
            "functional": document["functional"]["speedup"],
            "sharded": document["sharded"]["speedup"],
        },
        "walls_informational": {
            "micro_cold_s": document["micro"]["cold"]["wall_s"],
            "micro_warm_s": document["micro"]["warm"]["wall_s"],
            "sharded_critical_path_s": document["sharded"][
                "critical_path_s"],
        },
    }


def run_perf(
    *,
    cache_dir: str | Path | None = None,
    functional_reps: int = 2,
    baseline_path: str | Path | None = None,
    tolerance_pct: float = BASELINE_TOLERANCE_PCT,
    log: Log | None = None,
) -> PerfReport:
    """Run the full perf lane and return its report.

    Stages: micro grid first pass (fills or reuses the trace cache),
    micro grid cache-hit pass, byte-identity check between the two
    artifacts, functional A/B, sharded A/B, then gating — hard floors
    first, baseline drift second.
    """
    log = log or (lambda message: None)
    specs = micro_specs()
    preset_names = ALL_PRESETS
    cache = TraceCache(cache_dir or "benchmarks/.trace_cache",
                       code_version())

    passes = {}
    artifacts = {}
    for label in ("cold", "warm"):
        outcome = run_bench(
            specs, preset_names, jobs=1, cache_dir=cache.root,
            use_cache=True, grid_name="micro", log=log,
        )
        run_info = outcome.artifact.run
        passes[label] = {
            "wall_s": run_info["wall_s"],
            "stage_wall_s": run_info["stage_wall_s"],
            "cache_hits": run_info["cache"]["hits"],
            "cache_misses": run_info["cache"]["misses"],
        }
        artifacts[label] = outcome.artifact
        log(f"micro {label}: {run_info['wall_s']:.2f}s "
            f"({run_info['cache']['hits']} cache hits)")

    identical = (results_bytes(artifacts["cold"])
                 == results_bytes(artifacts["warm"]))
    functional = _measure_functional(functional_reps, log)
    sharded = _measure_sharded(functional_reps, log)

    document: dict[str, Any] = {
        "schema": PERF_SCHEMA,
        "created_utc": _utc_now(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "grid": {
            "apps": [spec.app for spec in specs],
            "presets": list(preset_names),
        },
        "micro": {**passes, "results_identical": identical},
        "functional": functional,
        "sharded": sharded,
        "gates": {
            "functional_min_speedup": FUNCTIONAL_MIN_SPEEDUP,
            "sharded_min_speedup": SHARDED_MIN_SPEEDUP,
            "baseline_tolerance_pct": tolerance_pct,
        },
    }

    failures = []
    if not all(artifacts[label].all_verified for label in artifacts):
        failures.append("micro grid verification failed")
    if not identical:
        failures.append(
            "cold and cache-hit micro artifacts differ byte for byte")
    if functional["speedup"] < FUNCTIONAL_MIN_SPEEDUP:
        failures.append(
            f"functional scheduler speedup {functional['speedup']:.1f}x "
            f"is below the {FUNCTIONAL_MIN_SPEEDUP:g}x floor")
    if sharded["speedup"] < SHARDED_MIN_SPEEDUP:
        failures.append(
            f"sharded engine speedup {sharded['speedup']:.1f}x "
            f"is below the {SHARDED_MIN_SPEEDUP:g}x floor")
    if baseline_path is not None and Path(baseline_path).exists():
        baseline = json.loads(Path(baseline_path).read_text("utf-8"))
        document["baseline"] = {"path": str(baseline_path),
                                "speedups": baseline["speedups"]}
        failures.extend(
            compare_to_baseline(document, baseline, tolerance_pct))
    document["failures"] = failures
    document["pass"] = not failures
    return PerfReport(document=document, failures=failures)
