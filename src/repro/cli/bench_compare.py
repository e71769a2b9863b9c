"""``repro bench compare``: gate an artifact against a baseline."""

from __future__ import annotations

import argparse

HELP = "compare an artifact against a baseline"
RULES = ()


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("current", help="BENCH_*.json to check")
    parser.add_argument("--baseline", required=True, metavar="FILE",
                        help="baseline BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=5.0,
                        metavar="PCT",
                        help="allowed simulated-metric drift (default: 5%%)")
    parser.add_argument("--wall-tolerance", type=float, default=None,
                        metavar="PCT",
                        help="also gate wall-clock stage times (off by "
                             "default: noisy across hosts)")


def main(args: argparse.Namespace) -> int:
    from repro.bench.compare import compare_artifacts
    from repro.bench.schema import BenchArtifact

    comparison = compare_artifacts(
        BenchArtifact.load(args.current), BenchArtifact.load(args.baseline),
        tolerance_pct=args.tolerance,
        wall_tolerance_pct=args.wall_tolerance)
    print(comparison.render())
    if comparison.passed:
        print(f"PASS: within {args.tolerance:g}% of baseline")
        return 0
    print(f"FAIL: regression(s) beyond {args.tolerance:g}% tolerance")
    return 1
