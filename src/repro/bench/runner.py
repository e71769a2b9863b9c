"""Experiment runner for the (application x preset) grid.

The paper's methodology — record each application's trace once on the
functional machine, then replay it through MLSim under many parameter
files — is one pipeline of two tasks per application, and the
functional one dominates (minutes of pure-Python SPMD simulation versus
milliseconds of replay):

1. :func:`_functional_task` — run the application, verify it
   numerically, and write the trace into the on-disk cache
   (:mod:`repro.bench.cache`; a temporary spool when the cache is off).
   Cache hits skip the run entirely.
2. :func:`_replay_app_task` — decode the entry's columnar trace once
   and replay it under every preset.

One driver (:func:`_run_grid`) executes those two tasks for every row:
in this process, row by row, when ``jobs == 1``; on a worker pool
otherwise, each replay scheduled as soon as its functional task
finishes.  Both assemble results in grid order, so they produce
byte-identical artifact ``results`` sections (see
:func:`repro.bench.schema.results_bytes`).

**Crash tolerance** — every row's trace is published to the cache as
soon as its functional task finishes, so a campaign killed mid-sweep
and run again re-simulates only the rows it had not recorded; the
recorded ones come back as cache hits and the ``results`` section is
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import itertools
import os
import platform
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from collections.abc import Callable
from typing import Any

import repro
from repro.bench.cache import (
    DEFAULT_CACHE_DIR,
    CachedRun,
    TraceCache,
    code_version,
    jsonify,
    load_cached_columns,
)
from repro.bench.grid import ALL_PRESETS, BenchSpec
from repro.bench.schema import (
    AppResult,
    AppTimings,
    BenchArtifact,
    PresetMetrics,
)
from repro.core.errors import ConfigurationError
from repro.machine.config import MachineConfig
from repro.mlsim.breakdown import MLSimResult
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import preset as load_preset
from repro.mlsim.simulator import ModelComparison

BASELINE_PRESET = "ap1000"


@dataclass
class _AppStage:
    """One application row the grid has finished: record and replays."""

    run: CachedRun
    replays: dict[str, MLSimResult]
    replay_s: dict[str, float]


@dataclass
class BenchOutcome:
    """Everything one sweep produced, in memory.

    ``runs`` holds one :class:`CachedRun` per row simulated this
    session; the analysis layer reads its ``name``/``verified``/
    ``checks``/``statistics``/``trace``.
    """

    artifact: BenchArtifact
    runs: dict[str, CachedRun] = field(default_factory=dict)
    replays: dict[str, dict[str, MLSimResult]] = field(default_factory=dict)
    #: Per-app ``repro.check`` reports (``check=True`` runs only).
    check_reports: dict[str, Any] = field(default_factory=dict)
    #: Per-app static communication-graph reports (``check=True`` runs
    #: only; apps the analyzer covers).
    static_reports: dict[str, Any] = field(default_factory=dict)

    @property
    def all_verified(self) -> bool:
        return self.artifact.all_verified

    @property
    def all_check_clean(self) -> bool:
        """True when the check stage ran and found nothing (vacuously
        true when it did not run)."""
        return (all(r.clean for r in self.check_reports.values())
                and all(r.clean for r in self.static_reports.values()))

    @property
    def comparisons(self) -> dict[str, ModelComparison]:
        """Three-model comparisons per app (requires the full preset
        set to have been replayed)."""
        out = {}
        for app, by_preset in self.replays.items():
            if all(p in by_preset for p in ALL_PRESETS):
                out[app] = ModelComparison(
                    ap1000=by_preset["ap1000"],
                    ap1000_fast=by_preset["ap1000-fast"],
                    ap1000_plus=by_preset["ap1000+"],
                )
        return out


def _functional_task(
    spec: BenchSpec,
    cache_root: str,
    version: str,
    reuse: bool,
) -> CachedRun:
    """Worker: ensure ``spec``'s trace is in the cache; return the
    cache-backed record (never carries the in-memory trace)."""
    cache = TraceCache(cache_root, version)
    if reuse:
        hit = cache.get(spec.app, spec.config())
        if hit is not None:
            return hit
    start = time.perf_counter()
    # Record with footprint annotations so the cached trace also serves
    # `repro check` and the --check stage (replays ignore the fields),
    # and with the machine observer attached so the cache entry carries
    # the telemetry harvest (link traffic, queue occupancy).
    run = spec.run(MachineConfig(sanitize=True, observe=True))
    wall = time.perf_counter() - start
    return cache.put(spec.app, spec.config(), run, wall)


def _replay_app_task(
    trace_path: str,
    preset_names: tuple[str, ...],
) -> tuple[dict[str, MLSimResult], dict[str, float]]:
    """Worker: replay one cached trace under every preset.

    The trace file is decoded exactly once, straight into numpy columns
    (the v2 cache format never materializes a TraceEvent), and the
    decode is shared by all presets.  Its wall time is folded into the
    first preset's replay wall so the stage totals stay honest.
    """
    results: dict[str, MLSimResult] = {}
    walls: dict[str, float] = {}
    start = time.perf_counter()
    columns = load_cached_columns(trace_path)
    decode_s = time.perf_counter() - start
    for preset_name in preset_names:
        t0 = time.perf_counter()
        results[preset_name] = replay_columns(
            columns, load_preset(preset_name), collect_metrics=True
        )
        walls[preset_name] = time.perf_counter() - t0
    if preset_names:
        walls[preset_names[0]] += decode_s
    return results, walls


def _app_result(spec: BenchSpec, stage: _AppStage,
                preset_names: tuple[str, ...]) -> AppResult:
    """Assemble one application's deterministic artifact row (without
    the check report — the check stage attaches that later)."""
    return AppResult(
        app=spec.app,
        config=jsonify(spec.config()),
        verified=bool(stage.run.verified),
        checks=jsonify(stage.run.checks),
        statistics=jsonify(asdict(stage.run.statistics)),
        total_events=stage.run.total_events,
        presets={
            p: PresetMetrics.from_result(stage.replays[p])
            for p in preset_names
        },
        speedups_vs_ap1000=_speedups(stage.replays),
        metrics={
            "machine": stage.run.machine_metrics,
            "replay": {
                p: jsonify(stage.replays[p].metrics or {})
                for p in preset_names
            },
        },
    )


def _environment() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_version": getattr(repro, "__version__", "unknown"),
        "code_version": code_version(),
    }


def _speedups(by_preset: dict[str, MLSimResult]) -> dict[str, float]:
    base = by_preset.get(BASELINE_PRESET)
    if base is None:
        return {}
    return {
        name: result.speedup_over(base) for name, result in by_preset.items()
    }


def _run_grid(
    specs: list[BenchSpec],
    preset_names: tuple[str, ...],
    jobs: int,
    cache_root: Path,
    version: str,
    reuse_cache: bool,
    log: Callable[[str], None],
) -> dict[str, _AppStage]:
    """Run both tasks of every row: inline, row by row, when ``jobs``
    is 1 (no pool to start); on a pool of ``jobs`` workers otherwise."""
    stages: dict[str, _AppStage] = {}
    functional = (str(cache_root), version, reuse_cache)
    count = itertools.count(1)

    def recorded(spec: BenchSpec, record: CachedRun) -> None:
        state = ("cached" if record.cache_hit
                 else f"{record.functional_wall_s:.2f}s")
        log(f"[{next(count)}/{len(specs)}] {spec.name}: functional "
            f"{state} ({record.total_events} events)")

    if jobs == 1:
        for spec in specs:
            record = _functional_task(spec, *functional)
            recorded(spec, record)
            stages[spec.name] = _AppStage(record, *_replay_app_task(
                str(record.trace_path), preset_names))
        return stages
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        #: future -> (its row, the row's record once that is known: a
        #: future without one is the row's functional task).
        pending: dict[Any, tuple[BenchSpec, CachedRun | None]] = {
            pool.submit(_functional_task, spec, *functional): (spec, None)
            for spec in specs
        }
        while pending:
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                spec, record = pending.pop(fut)
                if record is None:
                    record = fut.result()
                    recorded(spec, record)
                    replay = pool.submit(_replay_app_task,
                                         str(record.trace_path),
                                         preset_names)
                    pending[replay] = (spec, record)
                else:
                    stages[spec.name] = _AppStage(record, *fut.result())
    return stages


def _assemble(
    specs: list[BenchSpec],
    preset_names: tuple[str, ...],
    grid_name: str,
    stages: dict[str, _AppStage],
    run_info: dict[str, Any],
    check_reports: dict[str, Any] | None = None,
    static_reports: dict[str, Any] | None = None,
) -> BenchArtifact:
    apps: dict[str, AppResult] = {}
    timings: dict[str, AppTimings] = {}
    for spec in specs:
        stage = stages[spec.name]
        result = _app_result(spec, stage, preset_names)
        report = (check_reports or {}).get(spec.name)
        if report is not None:
            check_dict = report.to_dict()
            static = (static_reports or {}).get(spec.name)
            if static is not None:
                check_dict["static"] = static.to_dict()
            result = replace(result, check=check_dict)
        apps[spec.name] = result
        timings[spec.name] = AppTimings(
            functional_s=stage.run.functional_wall_s,
            cache_hit=stage.run.cache_hit,
            replay_s=dict(stage.replay_s),
        )
    return BenchArtifact(
        grid=grid_name,
        preset_names=list(preset_names),
        app_order=[s.name for s in specs],
        apps=apps,
        timings=timings,
        environment=_environment(),
        run=run_info,
    )


def run_bench(
    specs: list[BenchSpec],
    preset_names: tuple[str, ...] = ALL_PRESETS,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    grid_name: str = "custom",
    log: Callable[[str], None] | None = None,
    check: bool = False,
) -> BenchOutcome:
    """Run the (``specs`` x ``preset_names``) grid; return the outcome.

    ``jobs`` > 1 runs the rows' tasks on that many worker processes.
    ``use_cache=False`` ignores existing cache entries and leaves none
    behind: traces spool through a temporary directory, the one route
    from a functional task to its replays.  ``check=True`` adds a third
    stage: the race/synchronization checker over every recorded trace
    (reports land in each row's ``check`` field; they are deterministic,
    so every ``jobs`` setting produces identical results sections).
    """
    if jobs < 1:
        raise ConfigurationError("--jobs must be at least 1")
    if len({s.name for s in specs}) != len(specs):
        raise ConfigurationError("duplicate row in benchmark grid")
    log = log or (lambda message: None)
    cache_root = Path(cache_dir) if cache_dir else DEFAULT_CACHE_DIR
    version = code_version()
    start = time.perf_counter()
    spool: tempfile.TemporaryDirectory | None = None
    try:
        if not use_cache:
            spool = tempfile.TemporaryDirectory(prefix="repro-bench-")
            cache_root = Path(spool.name)
        stages = _run_grid(specs, preset_names, jobs, cache_root,
                           version, use_cache, log)
        if spool is not None:
            # The spool dir dies with this call, so pull every trace
            # into memory while the files still exist.
            for stage in stages.values():
                stage.run.trace
    finally:
        if spool is not None:
            spool.cleanup()
    check_reports: dict[str, Any] = {}
    static_reports: dict[str, Any] = {}
    check_wall = 0.0
    if check:
        # Deferred import: repro.check.runner imports repro.bench.cache,
        # so a top-level import here would cycle during package init.
        from repro.check.comm import STATIC_APPS, analyze_app
        from repro.check.runner import check_trace

        check_start = time.perf_counter()
        for spec in specs:
            report = check_trace(stages[spec.name].run.trace, spec.app)
            check_reports[spec.name] = report
            log(
                f"check {spec.name}: "
                + ("clean" if report.clean
                   else f"{len(report.diagnostics)} diagnostic(s)")
            )
            if spec.app in STATIC_APPS:
                # Scale-generic structural analysis at this row's cell
                # count (the analyzer's own problem sizes — findings are
                # about communication structure, not volume).
                static, _graph, _runs = analyze_app(
                    spec.app, scales=(spec.num_cells,),
                    build_graph=False)
                static_reports[spec.name] = static
                log(
                    f"check {spec.name} static: "
                    + ("clean" if static.clean
                       else f"{len(static.diagnostics)} diagnostic(s)")
                )
        check_wall = time.perf_counter() - check_start
    wall_s = time.perf_counter() - start
    stage_wall_s = {
        "functional": sum(s.run.functional_wall_s for s in stages.values()),
        "replay": sum(
            wall
            for stage in stages.values()
            for wall in stage.replay_s.values()
        ),
    }
    if check:
        stage_wall_s["check"] = check_wall
    run_info = {
        "jobs": jobs,
        "wall_s": wall_s,
        "stage_wall_s": stage_wall_s,
        "cache": {
            "enabled": use_cache,
            "hits": sum(1 for s in stages.values() if s.run.cache_hit),
            "misses": sum(1 for s in stages.values()
                          if not s.run.cache_hit),
        },
        "argv": list(sys.argv),
    }
    artifact = _assemble(specs, preset_names, grid_name, stages, run_info,
                         check_reports, static_reports)
    return BenchOutcome(
        artifact=artifact,
        runs={app: stage.run for app, stage in stages.items()},
        replays={app: dict(stage.replays) for app, stage in stages.items()},
        check_reports=check_reports,
        static_reports=static_reports,
    )
