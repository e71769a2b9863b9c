"""``repro trace export``: a trace's replay as Perfetto/Chrome JSON."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.apps.workloads import ORDER
from repro.cli.common import DEFAULT_PRESET, Rule
from repro.core.errors import ConfigurationError
from repro.mlsim.params import PRESETS, parse_params, preset

HELP = "export a trace's replay as Perfetto/Chrome JSON"
RULES = (
    Rule("TRACE", ("--micro", "--app"), "name one trace source"),
    Rule("--micro", ("--app",), "name one trace source"),
    Rule("--cells", ("TRACE",),
         "a trace file has its cell count; --cells sizes a recorded one"),
    Rule("--params", ("--preset",),
         "a parameter file replaces the preset; name one model"),
    Rule("--chunk-events", ("--output",),
         "it writes one file per chunk, named after the base path",
         requires=True),
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", nargs="?", metavar="TRACE",
                        help="trace file from `run --trace`")
    parser.add_argument("--micro", action="store_true",
                        help="export the built-in micro workload (the CI "
                             "golden-fixture subject)")
    parser.add_argument("--app", choices=list(ORDER), default=None,
                        help="record and export a workload instead")
    parser.add_argument("--cells", type=int, default=None,
                        help="cell count for --micro/--app")
    parser.add_argument("--format", default="perfetto",
                        choices=("perfetto", "chrome"),
                        help="output format (default: perfetto)")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help=f"replay preset (default: {DEFAULT_PRESET})")
    parser.add_argument("--params", metavar="FILE",
                        help="custom parameter file for the replay")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write here instead of stdout")
    parser.add_argument("--chunk-events", type=int, default=None,
                        metavar="N",
                        help="split the export into standalone documents "
                             "of <= N timeline events each (requires -o; "
                             "flow arrows stay linked across chunks)")


def source_trace(args: argparse.Namespace):
    """The trace named by a ``trace export``/``top`` invocation."""
    from repro.apps.workloads import workload
    from repro.obs.micro import MICRO_CELLS, micro_trace
    from repro.trace.io import load_trace

    if args.micro:
        return micro_trace(args.cells or MICRO_CELLS)
    if getattr(args, "app", None):
        return workload(args.app).run(num_cells=args.cells).trace
    if args.trace:
        return load_trace(args.trace)
    raise ConfigurationError(
        "no trace source: name a trace file, or pass --micro or --app")


def main(args: argparse.Namespace) -> int:
    from repro.obs.export import export_trace, export_trace_chunked

    trace = source_trace(args)
    params = (parse_params(args.params, name=args.params) if args.params
              else preset(args.preset or DEFAULT_PRESET))
    if args.chunk_events is None:
        text = export_trace(trace, params, args.format)
        if not args.output:
            sys.stdout.write(text)
            return 0
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"{args.format} export written to {args.output}")
        return 0
    out = Path(args.output)
    suffix = out.suffix or ".json"
    paths = []
    for index, text in enumerate(export_trace_chunked(
            trace, params, args.format, chunk_events=args.chunk_events)):
        path = out.with_name(f"{out.stem}.chunk{index:03d}{suffix}")
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    print(f"{args.format} export written to {len(paths)} chunk(s): "
          f"{paths[0]} .. {paths[-1]}")
    return 0
