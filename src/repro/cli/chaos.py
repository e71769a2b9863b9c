"""``repro chaos``: sweep fault-injection plans over the shipped apps (or
kill and resume them) and demand bit-identical results."""

from __future__ import annotations

import argparse
import json

from repro.apps.workloads import ORDER
from repro.cli.common import EXIT_DIVERGED, Rule

HELP = ("sweep fault-injection plans over the shipped apps and demand "
        "bit-identical results (docs/faults.md)")
RULES = (
    Rule("--plan", ("--seed",),
         "a plan file carries its own seeds (--recover's unfaulted case "
         "takes its kill site from --seed)", unless="--recover"),
    Rule("--recover", ("--no-check",),
         "the kill-and-resume sweep compares digests and runs no checker"),
    Rule("--snapshot-dir", ("--recover",),
         "only the kill-and-resume sweep takes snapshots", requires=True),
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("apps", nargs="*", metavar="APP",
                        choices=list(ORDER) + [[]],
                        help="applications to torture (default: all; "
                             "--smoke defaults to EP MatMul)")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI sweep: 2 apps x 2 plans")
    parser.add_argument("--seed", type=int, default=1994,
                        help="base seed for the built-in plan sets")
    parser.add_argument("--plan", metavar="FILE",
                        help="JSON fault plan (or list of plans) to use "
                             "instead of the built-in sets")
    parser.add_argument("--cells", type=int, default=None,
                        help="override every app's cell count")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the repro.check pass over each faulted "
                             "trace")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable sweep report")
    parser.add_argument("--recover", action="store_true",
                        help="kill-and-resume sweep instead: checkpoint, "
                             "die after the capture, resume, and demand "
                             "byte-identical completion (exit "
                             f"{EXIT_DIVERGED} on digest divergence)")
    parser.add_argument("--snapshot-dir", metavar="DIR", default=None,
                        help="keep --recover snapshots here instead of "
                             "temp dirs (CI artifact upload)")


def main(args: argparse.Namespace) -> int:
    from repro.faults import chaos
    from repro.faults.plan import FaultPlan, full_plans, smoke_plans

    if args.plan:
        plans = tuple(FaultPlan.load(args.plan))
    elif args.smoke:
        plans = smoke_plans(args.seed)
    else:
        plans = full_plans(args.seed)
    log = None if args.json else print
    if args.recover:
        report = chaos.recover_sweep(
            tuple(args.apps) or None, plans, seed=args.seed,
            cells=args.cells, smoke=args.smoke,
            snapshot_root=args.snapshot_dir, log=log)
    else:
        apps = tuple(args.apps) or (chaos.SMOKE_APPS if args.smoke
                                    else None)
        report = chaos.chaos_sweep(apps, plans, cells=args.cells,
                                   check=not args.no_check, log=log)
    document = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.json:
        print(document)
    else:
        print(report.summary())
        if not report.ok:
            # Structured summary for tooling even in text mode, so a CI
            # log always carries the machine-readable failure detail.
            print(document)
    if report.ok:
        return 0
    return EXIT_DIVERGED if report.diverged else 1
