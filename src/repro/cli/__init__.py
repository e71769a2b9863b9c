"""Command-line interface: run workloads, record/replay traces, print
parameter files, and reproduce the full evaluation.

Usage: ``python -m repro.cli VERB ...`` (or the ``repro`` console
script); ``repro --help`` lists the verbs and ``repro VERB --help`` a
verb's options and the combinations it refuses, e.g.::

    repro run CG --cells 16 --trace cg.trc [--json]
    repro replay cg.trc --preset ap1000+
    repro run CG --checkpoint-dir ckpts --checkpoint-every 2
    repro run CG --resume-from ckpts
    repro bench run --grid smoke

The ``run``/``replay`` split mirrors the paper's methodology: traces are
recorded once on the (functional) machine, then replayed through MLSim
under as many parameter files as desired.  ``check`` runs the race
detector / synchronization sanitizer over recorded traces and the SPMD
lint over application source (see ``docs/checker.md``).  ``trace
export`` and ``top`` surface the observability layer (``repro.obs``,
see ``docs/observability.md``).  ``ingest`` translates foreign traces
(see ``docs/ingest.md``) into the native format.

Each verb is one module, ``repro.cli.<verb>`` (``bench run`` is
``bench_run``, ``list`` is ``list_``), over :mod:`repro.cli.common`;
its ``RULES`` table names
the option combinations it refuses (``repro <verb> --help`` lists them).
A verb imports what it runs only when it runs, so ``repro replay`` pays
for no grid runner, checker or report generator.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

from repro.cli.common import check_rules, epilog, error_exit
from repro.core.errors import ReproError

#: Help of the verbs that group others.
GROUPS = {"trace": "trace tooling (Perfetto/Chrome timeline export)",
          "bench": "parallel benchmark sweeps with JSON artifacts"}


def build_parser() -> argparse.ArgumentParser:
    from repro.cli import (bench_compare, bench_run, chaos, check, ingest,
                           list_, params, replay, report, run, top,
                           trace_export)

    # Every verb, in ``repro --help`` order.
    verbs = {"list": list_, "run": run, "replay": replay,
             "trace export": trace_export, "top": top, "ingest": ingest,
             "params": params, "report": report, "check": check,
             "chaos": chaos, "bench run": bench_run,
             "bench compare": bench_compare}
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AP1000+ PUT/GET reproduction (ASPLOS VI, 1994)")
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for verb, module in verbs.items():
        *group, name = verb.split()
        sub = commands
        if group:
            if group[0] not in groups:
                groups[group[0]] = commands.add_parser(
                    group[0], help=GROUPS[group[0]]).add_subparsers(
                        dest=f"{group[0]}_command", required=True)
            sub = groups[group[0]]
        verb_parser = sub.add_parser(
            name, help=module.HELP, epilog=epilog(module.RULES),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        module.add_arguments(verb_parser)
        verb_parser.set_defaults(verb=module, parser=verb_parser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_rules(args, args.parser, args.verb.RULES)
        return args.verb.main(args)
    except ReproError as exc:
        return error_exit(args, exc)
