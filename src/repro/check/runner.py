"""Entry points of the checker: whole-trace analysis, app checking
against the trace cache, source linting, and the buggy-fixture gate.

``repro check`` and the bench ``check`` stage both funnel through
:func:`check_trace`; CI additionally runs :func:`check_buggy`, which
demands that every intentionally broken kernel under ``examples/buggy``
still trips the codes it was written to trip — the checker's own
regression suite.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from collections.abc import Callable
from pathlib import Path
from types import ModuleType
from typing import Any

import numpy as np

import repro
from repro.bench.cache import DEFAULT_CACHE_DIR, TraceCache
from repro.bench.grid import BenchSpec, workload_specs
from repro.check.comm import (
    DEFAULT_SCALES,
    STATIC_APPS,
    analyze_app,
    check_program,
)
from repro.check.diagnostics import CheckReport, Diagnostic
from repro.check.hb import hb_report
from repro.check.lint import lint_file, lint_paths
from repro.check.races import race_report
from repro.machine.config import MachineConfig
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind

_DATA_KINDS = [int(kind) for kind in (EventKind.PUT, EventKind.GET,
                                      EventKind.REMOTE_STORE,
                                      EventKind.REMOTE_LOAD)]


def repo_root() -> Path:
    """The repository root (two levels above the ``repro`` package)."""
    return Path(repro.__file__).resolve().parents[2]


def check_trace(trace: TraceBuffer, subject: str) -> CheckReport:
    """Run the full dynamic analysis (happens-before synchronization
    checks plus race detection) over one trace."""
    hb, sync_rep = hb_report(trace, subject)
    races = race_report(hb, subject)
    report = CheckReport(subject=subject)
    report.extend(sync_rep.diagnostics)
    report.extend(races.diagnostics)
    report.stats.update(sync_rep.stats)
    report.stats.update(races.stats)
    report.stats["events"] = trace.total_events
    report.notes.extend(sync_rep.notes)
    report.notes.extend(races.notes)
    if not trace_is_annotated(trace):
        report.notes.append(
            "trace carries no byte-range annotations; race detection "
            "covered synchronization structure only (re-record with "
            "the sanitizer enabled)"
        )
    return report.finalize()


def trace_is_annotated(trace: TraceBuffer) -> bool:
    """True when every data-bearing one-sided event carries a byte-range
    footprint (zero-byte acknowledges never do)."""
    block = trace.block()
    data = np.isin(block["kind"], _DATA_KINDS) & (block["size"] > 0)
    if "raddr" not in block:
        return not data.any()
    return bool(np.all((block["raddr"][data] >= 0)
                       | (block["laddr"][data] >= 0)))


def sanitized_run(spec: BenchSpec, cache: TraceCache | None, *,
                  reuse: bool = True) -> tuple[Any, bool]:
    """A byte-annotated recorded run of ``spec`` and whether it came
    from the cache: an annotated cache entry when ``reuse`` finds one,
    else a run recorded with the sanitizer on and ``put`` in ``cache``
    (when there is one)."""
    if cache is not None and reuse:
        cached = cache.get(spec.app, spec.config())
        if cached is not None and trace_is_annotated(cached.trace):
            return cached, True
    start = time.perf_counter()
    app_run = spec.run(MachineConfig(sanitize=True))
    wall = time.perf_counter() - start
    if cache is None:
        return app_run, False
    run = cache.put(spec.app, spec.config(), app_run, wall)
    run._trace = app_run.trace
    return run, False


def check_app(
    spec: BenchSpec,
    *,
    cache: TraceCache | None = None,
    use_cache: bool = True,
) -> CheckReport:
    """Check one application configuration, reusing a cached sanitized
    trace when one exists and re-recording (with annotations) when not.
    """
    run, cache_hit = sanitized_run(spec, cache, reuse=use_cache)
    report = check_trace(run.trace, spec.app)
    report.stats["cache_hit"] = int(cache_hit)
    if not getattr(run, "verified", True):
        report.add(Diagnostic(
            code="VERIFY-FAIL",
            message=f"functional verification failed for {spec.app}",
        ))
        report.finalize()
    return report


def check_apps(
    names: tuple[str, ...] | None = None,
    *,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    paper_scale: bool = False,
    log: Callable[[str], None] | None = None,
) -> list[CheckReport]:
    """Check every named application (default: the whole workload
    registry at default sizes) and return per-app reports."""
    if names:
        specs = workload_specs(paper_scale=paper_scale, names=names)
    else:
        specs = workload_specs(paper_scale=paper_scale)
    cache = TraceCache(cache_dir) if use_cache else None
    reports = []
    for spec in specs:
        if log is not None:
            log(f"check {spec.app} ({spec.config()})")
        reports.append(check_app(spec, cache=cache, use_cache=use_cache))
    return reports


# ----------------------------------------------------------------------
# Static lint drivers
# ----------------------------------------------------------------------

def default_lint_paths(root: Path | None = None) -> list[Path]:
    """The shipped SPMD sources: ``repro.apps`` plus ``examples/``
    (excluding the intentionally broken ``examples/buggy`` fixtures)."""
    root = repo_root() if root is None else Path(root)
    paths: list[Path] = []
    apps_dir = Path(repro.__file__).resolve().parent / "apps"
    paths.extend(sorted(apps_dir.glob("*.py")))
    examples = root / "examples"
    if examples.is_dir():
        paths.extend(sorted(examples.glob("*.py")))
    return paths


def lint_report(root: Path | None = None) -> CheckReport:
    """Lint the shipped SPMD sources into one report."""
    root = repo_root() if root is None else Path(root)
    return lint_paths(default_lint_paths(root), root=root)


# ----------------------------------------------------------------------
# Static analysis drivers
# ----------------------------------------------------------------------

def check_static_apps(
    names: tuple[str, ...] | None = None,
    *,
    scales: tuple[int, ...] = DEFAULT_SCALES,
    log: Callable[[str], None] | None = None,
) -> list[CheckReport]:
    """Statically analyze the shipped apps (default: all of them) at
    several machine sizes; one report per app."""
    selected = STATIC_APPS if not names else names
    reports = []
    for name in selected:
        if log is not None:
            log(f"static {name} (P = {', '.join(map(str, scales))})")
        report, _graph, _runs = analyze_app(name, scales=scales)
        reports.append(report)
    return reports


# ----------------------------------------------------------------------
# Buggy-fixture gate
# ----------------------------------------------------------------------

def buggy_dir(root: Path | None = None) -> Path:
    root = repo_root() if root is None else Path(root)
    return root / "examples" / "buggy"


def _load_fixture(path: Path) -> ModuleType:
    name = f"repro_buggy_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:  # pragma: no cover
        raise ImportError(f"cannot load fixture {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def check_buggy(
    root: Path | None = None,
) -> tuple[list[CheckReport], bool]:
    """Run the checker over every seeded-bug fixture.

    Each fixture module declares ``EXPECT`` (the diagnostic codes it was
    built to trigger) and ``build_trace()``.  A fixture *passes* when
    every expected code is found by the dynamic checker or the lint —
    and, when it expects none, when they find nothing at all; the second
    return value is True only if all fixtures pass.
    """
    root = repo_root() if root is None else Path(root)
    reports: list[CheckReport] = []
    all_caught = True
    for path in sorted(buggy_dir(root).glob("*.py")):
        if path.name.startswith("_"):
            continue
        module = _load_fixture(path)
        expect: set[str] = set(module.EXPECT)
        report = check_trace(module.build_trace(), f"buggy/{path.stem}")
        report.extend(lint_file(path, root=root))
        report.finalize()
        found = report.codes()
        missing = expect - found
        report.stats["expected"] = len(expect)
        report.stats["caught"] = len(expect - missing)
        if not expect:
            # Expecting nothing is expecting a clean report.
            all_caught &= report.clean
            report.notes.append(
                "clean, as expected: no diagnostics" if report.clean
                else f"UNEXPECTED diagnostics on a fixture expected "
                     f"clean: {sorted(found)}")
        elif missing:
            all_caught = False
            report.notes.append(
                f"MISSED expected diagnostics: {sorted(missing)}"
            )
        else:
            report.notes.append(
                f"caught all expected diagnostics: {sorted(expect)}"
            )
        reports.append(report)
    return reports, all_caught


def check_static_buggy(
    root: Path | None = None,
) -> tuple[list[CheckReport], bool]:
    """Run the static analyzer over every seeded-bug fixture.

    Fixtures declare ``EXPECT_STATIC`` — the scale-generic codes their
    bug must trip when the program is concolically executed (at
    ``STATIC_SCALES`` if declared, else the analyzer's default machine
    sizes).  Unlike the dynamic gate, no trace is recorded: the analyzer
    must predict the bug from the program alone."""
    root = repo_root() if root is None else Path(root)
    reports: list[CheckReport] = []
    all_caught = True
    for path in sorted(buggy_dir(root).glob("*.py")):
        if path.name.startswith("_"):
            continue
        module = _load_fixture(path)
        expect = set(getattr(module, "EXPECT_STATIC", set()))
        if not expect:
            continue
        scales = tuple(getattr(module, "STATIC_SCALES", DEFAULT_SCALES))
        report = check_program(module.program, scales,
                               subject=f"static/buggy/{path.stem}")
        found = report.codes()
        missing = expect - found
        report.stats["expected"] = len(expect)
        report.stats["caught"] = len(expect - missing)
        if missing:
            all_caught = False
            report.notes.append(
                f"MISSED expected static diagnostics: {sorted(missing)}"
            )
        else:
            report.notes.append(
                f"caught all expected static diagnostics: "
                f"{sorted(expect)}"
            )
        reports.append(report)
    return reports, all_caught
