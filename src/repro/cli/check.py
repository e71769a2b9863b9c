"""``repro check``: the race detector, synchronization sanitizer and SPMD
lint over the shipped applications, a trace file, or the seeded bugs."""

from __future__ import annotations

import argparse

from repro.apps.workloads import WORKLOADS
from repro.cli.common import CACHE_RULE, Rule

HELP = "race detector, synchronization sanitizer, and SPMD lint"
_CACHE = ("--cache-dir", "--no-cache")
RULES = (
    Rule("--trace", ("APP", "--all", "--buggy", "--static", "--lint-only",
                     "--paper-scale", *_CACHE, "--quiet"),
         "it checks that one file and nothing else"),
    Rule("--buggy", ("APP", "--all", "--lint-only", "--paper-scale",
                     *_CACHE),
         "it checks the seeded fixtures in examples/buggy/ (with "
         "--static, statically)"),
    Rule("--static", ("--lint-only", "--paper-scale", *_CACHE),
         "it records no trace: it analyzes the apps at P = 4, 16, 64"),
    Rule("--lint-only", ("APP", "--all", "--paper-scale", *_CACHE),
         "the lint reads application source and records no trace"),
    Rule("--all", ("APP",), "--all names every application"),
    CACHE_RULE,
    Rule("--quiet", ("--buggy",),
         "only the --buggy gate prints per-diagnostic detail",
         requires=True),
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("apps", nargs="*", metavar="APP",
                        choices=list(WORKLOADS) + [[]],
                        help="applications to check (default: all)")
    parser.add_argument("--all", action="store_true", dest="check_all",
                        help="check every shipped application (the "
                             "default when no apps are named)")
    parser.add_argument("--buggy", action="store_true",
                        help="verify the checker against the seeded bugs "
                             "in examples/buggy/ (with --static: the "
                             "static analyzer's own gate)")
    parser.add_argument("--lint-only", action="store_true",
                        help="run only the static SPMD lint")
    parser.add_argument("--static", action="store_true",
                        help="static communication-graph analysis: "
                             "concolically execute the apps at P = 4, 16, "
                             "64 and report scale-generic findings (no "
                             "traces recorded)")
    parser.add_argument("--trace", metavar="FILE",
                        help="check one recorded trace file instead")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable repro-check-v1 output")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-diagnostic detail (--buggy)")
    parser.add_argument("--paper-scale", action="store_true",
                        help="check the paper-scale configurations")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="trace cache location (default: "
                             "benchmarks/.trace_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-record, never touch the cache")


def _buggy(args: argparse.Namespace) -> int:
    from repro.check.diagnostics import report_json
    from repro.check.runner import check_buggy, check_static_buggy

    reports, ok = check_static_buggy() if args.static else check_buggy()
    # The buggy gate *passes* when the seeded diagnostics are found:
    # report cleanliness is inverted relative to every other mode.
    for report in reports:
        print(f"== {report.subject}: {report.stats.get('caught', 0)}"
              f"/{report.stats.get('expected', 0)} expected diagnostics "
              "caught")
        if not args.quiet:
            body = report.render()
            if body:
                print(body)
    if args.json:
        print(report_json(reports))
    print("buggy fixtures: "
          + ("all seeded bugs caught" if ok else "SOME SEEDED BUGS MISSED"))
    return 0 if ok else 1


def main(args: argparse.Namespace) -> int:
    from repro.bench.cache import DEFAULT_CACHE_DIR
    from repro.check.diagnostics import report_json
    from repro.check.runner import (
        check_apps,
        check_static_apps,
        check_trace,
        lint_report,
    )
    from repro.trace.io import load_trace

    if args.buggy:
        return _buggy(args)
    names = tuple(args.apps) or None
    log = None if args.json else print
    if args.trace:
        reports = [check_trace(load_trace(args.trace), args.trace)]
    elif args.static:
        reports = check_static_apps(names, log=log)
    elif args.lint_only:
        reports = [lint_report()]
    else:
        reports = [*check_apps(names, paper_scale=args.paper_scale,
                               cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
                               use_cache=not args.no_cache, log=log),
                   lint_report()]
    if args.json:
        print(report_json(reports))
    else:
        for report in reports:
            status = "clean" if report.clean else (
                f"{len(report.diagnostics)} diagnostic(s)")
            print(f"== {report.subject}: {status}")
            body = report.render()
            if body:
                print(body)
    clean = all(r.clean for r in reports)
    if not args.json:
        print("check: " + ("clean" if clean else "DIAGNOSTICS FOUND"))
    return 0 if clean else 1
