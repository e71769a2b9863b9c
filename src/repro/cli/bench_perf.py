"""``repro bench perf``: measure the scheduler/engine speedups and gate
them on the checked-in baseline."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli.common import Rule

HELP = "measure scheduler/engine speedups and gate on regressions"
RULES = (
    Rule("--no-baseline", ("--tolerance",),
         "the tolerance is the allowed drop below the baseline"),
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", metavar="FILE",
                        default="perf_report.json",
                        help="perf report path (default perf_report.json)")
    parser.add_argument("--baseline", metavar="FILE",
                        default="benchmarks/perf_baseline.json",
                        help="checked-in speedup baseline to gate against")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the baseline comparison (hard floors "
                             "still apply)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record this run's speedups as the new "
                             "baseline")
    parser.add_argument("--tolerance", type=float, default=25.0,
                        metavar="PCT",
                        help="allowed %% drop below the baseline speedups "
                             "(default 25)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="trace cache directory (default "
                             "benchmarks/.trace_cache)")


def main(args: argparse.Namespace) -> int:
    from repro.bench.perf import baseline_from_report, run_perf

    report = run_perf(
        cache_dir=args.cache_dir,
        baseline_path=None if args.no_baseline else args.baseline,
        tolerance_pct=args.tolerance,
        log=print,
    )
    doc = report.document
    print(f"sharded speedup: {doc['sharded']['speedup']:.1f}x over "
          f"serial at {doc['sharded']['config']['num_cells']} cells "
          f"(critical path, floor "
          f"{doc['gates']['sharded_min_speedup']:g}x); wall-clock "
          f"{doc['sharded']['wall_ratio']:.1f}x (not gated)")
    print(f"perf report written to {report.save(args.output)}")
    if args.write_baseline:
        base_path = Path(args.baseline)
        base_path.parent.mkdir(parents=True, exist_ok=True)
        base_path.write_text(
            json.dumps(baseline_from_report(doc), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"baseline written to {base_path}")
    if report.passed:
        print("PASS: perf gates hold")
        return 0
    for failure in report.failures:
        print(f"FAIL: {failure}")
    return 1
