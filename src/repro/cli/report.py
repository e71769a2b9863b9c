"""``repro report``: regenerate Tables 2 and 3 and Figures 7 and 8."""

from __future__ import annotations

import argparse

from repro.apps.workloads import ORDER

HELP = "regenerate the evaluation"
RULES = ()


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument("--apps", nargs="+", default=list(ORDER),
                        choices=list(ORDER))
    parser.add_argument("--format", default="text",
                        choices=("text", "markdown"))
    parser.add_argument("--validate", action="store_true",
                        help="check the paper's qualitative results")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep")


def main(args: argparse.Namespace) -> int:
    from repro.analysis.report import run_experiments

    report = run_experiments(paper_scale=args.paper_scale,
                             names=tuple(args.apps), jobs=args.jobs)
    if args.format == "markdown":
        from repro.analysis.markdown import report_markdown
        print(report_markdown(report))
    else:
        print(report.render())
    if args.validate:
        from repro.analysis.validate import format_checks, validate_report
        checks = validate_report(report)
        print()
        print(format_checks(checks))
        if not all(c.passed for c in checks):
            return 1
    return 0 if report.all_verified else 1
