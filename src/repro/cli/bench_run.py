"""``repro bench run``: run the (application x preset) grid into a
``repro-bench-v1`` artifact, journaled so a killed campaign resumes."""

from __future__ import annotations

import argparse
import shlex
import signal
from pathlib import Path

from repro.bench.grid import GRID_APPS, GRIDS, grid_specs
from repro.cli.common import (CACHE_RULE, EXIT_RESUMABLE, Rule, command_line,
                              on_signals)
from repro.mlsim.params import PRESETS

HELP = "run the (application x preset) grid"
RULES = (
    Rule("--output", ("--output-dir",),
         "--output is the artifact's whole path"),
    CACHE_RULE,
    Rule("--resume", ("--no-cache",),
         "the default journal lives in the cache; name one with --journal",
         unless="--journal"),
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", choices=list(GRIDS), default="bench",
                        help="bench: the Table 2/3 rows (default); smoke: "
                             "EP + MatMul, CI-sized, 2 presets; micro: "
                             "latency microbenchmarks + small CG; wide: "
                             "EP and RingShift at 256-4096 cells")
    parser.add_argument("--apps", nargs="*", metavar="APP",
                        choices=list(GRID_APPS),
                        help="the named grid's rows of these apps")
    parser.add_argument("--presets", nargs="*", metavar="PRESET",
                        choices=sorted(PRESETS),
                        help="parameter presets to replay under")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--output", metavar="FILE",
                        help="artifact path (default: "
                             "BENCH_<timestamp>.json)")
    parser.add_argument("--output-dir", metavar="DIR", default=".",
                        help="directory for the default artifact name")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="trace cache location (default: "
                             "benchmarks/.trace_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the trace cache")
    parser.add_argument("--check", action="store_true",
                        help="run the race/synchronization checker over "
                             "every recorded trace")
    parser.add_argument("--journal", metavar="FILE", default=None,
                        help="campaign journal path (default: "
                             "<cache-dir>/journal-<grid>.json; every "
                             "completed row is recorded atomically)")
    parser.add_argument("--resume", action="store_true",
                        help="resume a killed campaign from its journal, "
                             "re-simulating only the missing rows "
                             "(byte-identical results section)")


def _interrupted(signum: int, frame: object) -> None:
    # A SIGTERM (CI timeout, scheduler preemption) takes the same clean
    # path as Ctrl-C: the journal already holds every completed row.
    raise KeyboardInterrupt


def main(args: argparse.Namespace) -> int:
    from repro.bench.cache import DEFAULT_CACHE_DIR
    from repro.bench.runner import run_bench
    from repro.bench.schema import artifact_filename

    grid_name = args.grid
    specs = grid_specs(grid_name, tuple(args.apps) if args.apps else None)
    preset_names = tuple(args.presets or GRIDS[grid_name][1])
    journal_path = Path(args.journal) if args.journal else None
    if journal_path is None and not args.no_cache:
        cache_root = (Path(args.cache_dir) if args.cache_dir
                      else DEFAULT_CACHE_DIR)
        journal_path = cache_root / f"journal-{grid_name}.json"
    try:
        with on_signals(_interrupted, signal.SIGTERM):
            outcome = run_bench(
                specs, preset_names, jobs=args.jobs,
                cache_dir=args.cache_dir, use_cache=not args.no_cache,
                grid_name=grid_name, log=print, check=args.check,
                journal_path=journal_path, resume=args.resume)
    except KeyboardInterrupt:
        print()
        if journal_path is not None:
            print(f"interrupted: completed rows journaled in "
                  f"{journal_path}")
            print("resume with: " + shlex.join(
                command_line(args, args.parser, drop=("--resume",))
                + ["--resume"]))
            return EXIT_RESUMABLE
        print("interrupted (no journal: rerun without --no-cache, or "
              "pass --journal, to make campaigns resumable)")
        return 130
    artifact = outcome.artifact
    for row in artifact.app_order:
        result = artifact.apps[row]
        status = "VERIFIED" if result.verified else "FAILED"
        elapsed = "  ".join(f"{p}={result.presets[p].elapsed_us:.1f}us"
                            for p in preset_names)
        print(f"{row:14s} {status:8s} {elapsed}")
    run = artifact.run
    print(f"grid {grid_name}: {len(specs)} rows x {len(preset_names)} "
          f"presets, jobs={args.jobs}, wall {run['wall_s']:.2f}s "
          f"(functional {run['stage_wall_s']['functional']:.2f}s, "
          f"replay {run['stage_wall_s']['replay']:.2f}s, "
          f"cache hits {run['cache']['hits']})")
    if args.check:
        for row, report in outcome.check_reports.items():
            if not report.clean:
                print(f"check {row}:")
                print(report.render())
        status = "clean" if outcome.all_check_clean else "DIAGNOSTICS FOUND"
        print(f"check stage: {status}")
    path = artifact.save(args.output or Path(args.output_dir)
                         / artifact_filename())
    print(f"artifact written to {path}")
    ok = artifact.all_verified and (not args.check
                                    or outcome.all_check_clean)
    return 0 if ok else 1
