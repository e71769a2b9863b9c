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

**Crash tolerance** — when a ``journal_path`` is given, every finished
application row (its deterministic artifact entry plus wall timings) is
appended to a ``repro-bench-journal-v1`` file, rewritten atomically
after each row.  A campaign killed mid-sweep restarted with
``resume=True`` validates the journal (grid, presets, code version —
any drift fails loudly) and re-simulates only the missing rows; the
journaled rows are spliced back verbatim, so the final ``results``
section is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
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
    app_result_from_dict,
)
from repro.core.errors import ConfigurationError
from repro.machine.config import MachineConfig
from repro.mlsim.breakdown import MLSimResult
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import preset as load_preset
from repro.mlsim.simulator import ModelComparison

BASELINE_PRESET = "ap1000"
JOURNAL_SCHEMA = "repro-bench-journal-v1"
#: Test hook: simulate a crash after this many rows have been
#: journaled (raises KeyboardInterrupt, the same path a Ctrl-C takes).
ABORT_AFTER_ENV = "REPRO_BENCH_ABORT_AFTER"


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


def _app_timings(stage: _AppStage) -> AppTimings:
    return AppTimings(
        functional_s=stage.run.functional_wall_s,
        cache_hit=stage.run.cache_hit,
        replay_s=dict(stage.replay_s),
    )


class BenchJournal:
    """Crash-tolerant record of a campaign's completed rows.

    Every time an application finishes its replays, its assembled
    artifact row and timings are added and the whole journal rewritten
    atomically (temp file + ``os.replace``), so a kill at any point
    leaves either the previous journal or the new one — never a torn
    file.  Serialized rows round-trip through JSON exactly (floats use
    shortest-repr encoding), so a resumed campaign's ``results``
    section is byte-identical to an uninterrupted one.
    """

    def __init__(self, path: Path, *, grid: str, version: str,
                 preset_names: tuple[str, ...],
                 specs: list[BenchSpec]) -> None:
        self.path = Path(path)
        self.grid = grid
        self.version = version
        self.preset_names = list(preset_names)
        self.app_order = [s.app for s in specs]
        self.apps: dict[str, dict[str, Any]] = {}
        abort_after = os.environ.get(ABORT_AFTER_ENV)
        self._abort_after = int(abort_after) if abort_after else None

    def seed(self, completed: dict[str, tuple[AppResult, AppTimings]],
             ) -> None:
        """Carry rows journaled by the killed run into this one."""
        for app, (result, timings) in completed.items():
            self.apps[app] = {"result": asdict(result),
                              "timings": asdict(timings)}

    def record(self, spec: BenchSpec, result: AppResult,
               timings: AppTimings) -> None:
        self.apps[spec.app] = {"result": asdict(result),
                               "timings": asdict(timings)}
        self._write()
        if (self._abort_after is not None
                and len(self.apps) >= self._abort_after):
            raise KeyboardInterrupt(
                f"{ABORT_AFTER_ENV}={self._abort_after}: simulated crash "
                f"after journaling {len(self.apps)}/{len(self.app_order)} "
                "rows")

    def _write(self) -> None:
        doc = {
            "schema": JOURNAL_SCHEMA,
            "grid": self.grid,
            "code_version": self.version,
            "preset_names": self.preset_names,
            "app_order": self.app_order,
            "apps": self.apps,
        }
        payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.path.parent, prefix=f".{self.path.name}.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


def load_journal(
    path: str | Path, *, grid: str, version: str,
    preset_names: tuple[str, ...], specs: list[BenchSpec],
) -> dict[str, tuple[AppResult, AppTimings]]:
    """The completed rows of a killed campaign, validated against the
    campaign being resumed.

    Any drift — schema, grid name, preset set, app order, code version,
    or a journaled row whose config no longer matches its spec — raises
    :class:`ConfigurationError` instead of silently splicing stale
    results into a fresh artifact.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"cannot resume: journal {path} is unreadable ({exc})"
        ) from exc
    if data.get("schema") != JOURNAL_SCHEMA:
        raise ConfigurationError(
            f"cannot resume: journal {path} has schema "
            f"{data.get('schema')!r} (expected {JOURNAL_SCHEMA!r})")
    expected = {
        "grid": grid,
        "code_version": version,
        "preset_names": list(preset_names),
        "app_order": [s.app for s in specs],
    }
    for key, want in expected.items():
        got = data.get(key)
        if got != want:
            raise ConfigurationError(
                f"cannot resume: journal {path} was written for "
                f"{key}={got!r} but this campaign has {key}={want!r}; "
                "rerun without --resume to start over")
    spec_by_app = {s.app: s for s in specs}
    completed: dict[str, tuple[AppResult, AppTimings]] = {}
    for app, entry in data.get("apps", {}).items():
        spec = spec_by_app.get(app)
        if spec is None:
            raise ConfigurationError(
                f"cannot resume: journal {path} carries unknown "
                f"application {app!r}")
        result = app_result_from_dict(app, entry["result"])
        if result.config != jsonify(spec.config()):
            raise ConfigurationError(
                f"cannot resume: journaled {app} row was produced with "
                f"config {result.config!r}, but this campaign would run "
                f"it with {jsonify(spec.config())!r}")
        completed[app] = (result, AppTimings(**entry["timings"]))
    return completed


def _trace_for_check(spec: BenchSpec, stages: dict[str, _AppStage],
                     cache_root: Path, version: str):
    """The trace to check for one row: this session's record, else the
    cache entry of a row the journal carried over."""
    stage = stages.get(spec.app)
    record = (stage.run if stage is not None
              else TraceCache(cache_root, version).get(spec.app,
                                                       spec.config()))
    if record is None:
        raise ConfigurationError(
            f"--check on a resumed campaign needs {spec.app}'s cached "
            "trace, but the cache holds no entry at this code version; "
            "rerun without --resume")
    return record.trace


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
    journal: BenchJournal | None = None,
) -> dict[str, _AppStage]:
    """Run both tasks of every row: inline, row by row, when ``jobs``
    is 1 (so a journaled campaign has simulated exactly the rows it
    journaled); on a pool of ``jobs`` workers otherwise."""
    stages: dict[str, _AppStage] = {}
    functional = (str(cache_root), version, reuse_cache)
    count = itertools.count(1)

    def recorded(spec: BenchSpec, record: CachedRun) -> None:
        state = ("cached" if record.cache_hit
                 else f"{record.functional_wall_s:.2f}s")
        log(f"[{next(count)}/{len(specs)}] {spec.app}: functional "
            f"{state} ({record.total_events} events)")

    def replayed(spec: BenchSpec, record: CachedRun,
                 results: dict[str, MLSimResult],
                 walls: dict[str, float]) -> None:
        stage = stages[spec.app] = _AppStage(record, results, walls)
        if journal is not None:
            journal.record(spec, _app_result(spec, stage, preset_names),
                           _app_timings(stage))

    if jobs == 1:
        for spec in specs:
            record = _functional_task(spec, *functional)
            recorded(spec, record)
            replayed(spec, record, *_replay_app_task(
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
                    replayed(spec, record, *fut.result())
    return stages


def _assemble(
    specs: list[BenchSpec],
    preset_names: tuple[str, ...],
    grid_name: str,
    stages: dict[str, _AppStage],
    run_info: dict[str, Any],
    check_reports: dict[str, Any] | None = None,
    static_reports: dict[str, Any] | None = None,
    completed: dict[str, tuple[AppResult, AppTimings]] | None = None,
) -> BenchArtifact:
    apps: dict[str, AppResult] = {}
    timings: dict[str, AppTimings] = {}
    for spec in specs:
        report = (check_reports or {}).get(spec.app)
        static = (static_reports or {}).get(spec.app)
        check_dict = report.to_dict() if report is not None else None
        if check_dict is not None and static is not None:
            check_dict["static"] = static.to_dict()
        if completed and spec.app in completed:
            # A row journaled by the killed run: splice it back
            # verbatim (the check report, when the check stage ran, was
            # recomputed this session — it is deterministic).
            result, row_timings = completed[spec.app]
            if check_dict is not None:
                result = replace(result, check=check_dict)
            apps[spec.app] = result
            timings[spec.app] = row_timings
            continue
        stage = stages[spec.app]
        result = _app_result(spec, stage, preset_names)
        if check_dict is not None:
            result = replace(result, check=check_dict)
        apps[spec.app] = result
        timings[spec.app] = _app_timings(stage)
    return BenchArtifact(
        grid=grid_name,
        preset_names=list(preset_names),
        app_order=[s.app for s in specs],
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
    journal_path: str | Path | None = None,
    resume: bool = False,
) -> BenchOutcome:
    """Run the (``specs`` x ``preset_names``) grid; return the outcome.

    ``jobs`` > 1 runs the rows' tasks on that many worker processes.
    ``use_cache=False`` ignores existing cache entries and leaves none
    behind: traces spool through a temporary directory, the one route
    from a functional task to its replays.  ``check=True`` adds a third
    stage: the race/synchronization checker over every recorded trace
    (reports land in each row's ``check`` field; they are deterministic,
    so every ``jobs`` setting produces identical results sections).

    ``journal_path`` makes the campaign crash-tolerant: each completed
    row is journaled atomically, and ``resume=True`` skips rows the
    journal already holds (validating grid/presets/code version first).
    The resumed artifact's ``results`` section is byte-identical to an
    uninterrupted run's.
    """
    if jobs < 1:
        raise ConfigurationError("--jobs must be at least 1")
    if len({s.app for s in specs}) != len(specs):
        raise ConfigurationError("duplicate application in benchmark grid")
    log = log or (lambda message: None)
    cache_root = Path(cache_dir) if cache_dir else DEFAULT_CACHE_DIR
    version = code_version()
    if resume and journal_path is None:
        raise ConfigurationError(
            "resume=True needs the journal_path of the killed campaign")
    completed: dict[str, tuple[AppResult, AppTimings]] = {}
    if resume and Path(journal_path).exists():
        completed = load_journal(
            journal_path, grid=grid_name, version=version,
            preset_names=preset_names, specs=specs)
        log(f"resume: {len(completed)}/{len(specs)} rows already "
            f"journaled in {journal_path}; re-simulating the rest")
    elif resume:
        log(f"resume: no journal at {journal_path}; running the full "
            "grid")
    journal: BenchJournal | None = None
    if journal_path is not None:
        journal = BenchJournal(
            Path(journal_path), grid=grid_name, version=version,
            preset_names=preset_names, specs=specs)
        journal.seed(completed)
    todo = [s for s in specs if s.app not in completed]
    start = time.perf_counter()
    spool: tempfile.TemporaryDirectory | None = None
    try:
        if not use_cache:
            spool = tempfile.TemporaryDirectory(prefix="repro-bench-")
            cache_root = Path(spool.name)
        stages = _run_grid(todo, preset_names, jobs, cache_root, version,
                           use_cache, log, journal)
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
            report = check_trace(
                _trace_for_check(spec, stages, cache_root, version),
                spec.app)
            check_reports[spec.app] = report
            log(
                f"check {spec.app}: "
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
                static_reports[spec.app] = static
                log(
                    f"check {spec.app} static: "
                    + ("clean" if static.clean
                       else f"{len(static.diagnostics)} diagnostic(s)")
                )
        check_wall = time.perf_counter() - check_start
    wall_s = time.perf_counter() - start
    stage_wall_s = {
        "functional": sum(s.run.functional_wall_s for s in stages.values())
        + sum(t.functional_s for _, t in completed.values()),
        "replay": sum(
            wall
            for stage in stages.values()
            for wall in stage.replay_s.values()
        )
        + sum(
            wall
            for _, t in completed.values()
            for wall in t.replay_s.values()
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
    if journal_path is not None:
        run_info["journal"] = {
            "path": str(journal_path),
            "resumed_rows": sorted(completed),
        }
    artifact = _assemble(specs, preset_names, grid_name, stages, run_info,
                         check_reports, static_reports, completed)
    return BenchOutcome(
        artifact=artifact,
        runs={app: stage.run for app, stage in stages.items()},
        replays={app: dict(stage.replays) for app, stage in stages.items()},
        check_reports=check_reports,
        static_reports=static_reports,
    )
