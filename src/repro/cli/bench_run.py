"""``repro bench run``: run the (application x preset) grid into a
``repro-bench-v1`` artifact; a killed campaign finishes by running it
again, the rows it recorded served from the trace cache."""

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
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", choices=list(GRIDS), default="bench",
                        help="bench: the Table 2/3 rows (default); smoke: "
                             "EP + MatMul, CI-sized, 2 presets; micro: "
                             "latency microbenchmarks + small CG; wide: "
                             "EP and RingShift at 256-4096 cells")
    parser.add_argument("--apps", nargs="+", metavar="APP",
                        choices=list(GRID_APPS),
                        help="the named grid's rows of these apps")
    parser.add_argument("--presets", nargs="+", metavar="PRESET",
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


def _interrupted(signum: int, frame: object) -> None:
    # A SIGTERM (CI timeout, scheduler preemption) takes the same clean
    # path as Ctrl-C: the cache already holds every recorded row.
    raise KeyboardInterrupt


def main(args: argparse.Namespace) -> int:
    from repro.bench.cache import DEFAULT_CACHE_DIR
    from repro.bench.runner import run_bench
    from repro.bench.schema import artifact_filename

    grid_name = args.grid
    specs = grid_specs(grid_name, tuple(args.apps) if args.apps else None)
    preset_names = tuple(args.presets or GRIDS[grid_name][1])
    try:
        with on_signals(_interrupted, signal.SIGTERM):
            outcome = run_bench(
                specs, preset_names, jobs=args.jobs,
                cache_dir=args.cache_dir, use_cache=not args.no_cache,
                grid_name=grid_name, log=print, check=args.check)
    except KeyboardInterrupt:
        print()
        if args.no_cache:
            print("interrupted (--no-cache keeps no recorded rows)")
            return 130
        print(f"interrupted: recorded rows are cached in "
              f"{args.cache_dir or DEFAULT_CACHE_DIR}")
        print("run again with: "
              + shlex.join(command_line(args, args.parser)))
        return EXIT_RESUMABLE
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
