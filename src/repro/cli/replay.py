"""``repro replay``: replay a recorded trace through MLSim."""

from __future__ import annotations

import argparse

from repro.cli.common import DEFAULT_PRESET, Rule, print_json
from repro.mlsim.params import PRESETS, parse_params, preset

HELP = "replay a recorded trace through MLSim"
RULES = (
    Rule("--params", ("--preset",),
         "a parameter file replaces the preset; name one model"),
    Rule("--timeline", ("--json",),
         "the Gantt chart is text; the JSON document carries no timeline"),
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", help="trace file from `run --trace`")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help=f"parameter preset (default: {DEFAULT_PRESET})")
    parser.add_argument("--params", metavar="FILE",
                        help="custom Figure 6 style parameter file")
    parser.add_argument("--timeline", action="store_true",
                        help="print a per-PE ASCII Gantt chart")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable repro-replay-v1 output "
                             "(includes the replay metric document)")


def main(args: argparse.Namespace) -> int:
    # File -> columns -> replay: no TraceEvent is built on the way (the
    # bench runner's path for cached traces), timeline or not.
    from repro.mlsim.engine_soa import replay_columns
    from repro.trace.io import load_trace_columns

    params = (parse_params(args.params, name=args.params) if args.params
              else preset(args.preset or DEFAULT_PRESET))
    result = replay_columns(load_trace_columns(args.trace), params,
                            record_timeline=args.timeline,
                            collect_metrics=args.json)
    if args.json:
        print_json({
            "schema": "repro-replay-v1",
            "trace_file": args.trace,
            "model": result.model_name,
            "elapsed_us": result.elapsed_us,
            "messages": result.messages,
            "bytes_on_wire": result.bytes_on_wire,
            "mean_execution_us": result.mean_execution,
            "mean_rtsys_us": result.mean_rtsys,
            "mean_overhead_us": result.mean_overhead,
            "mean_idle_us": result.mean_idle,
            "metrics": result.metrics,
        })
        return 0
    if args.timeline:
        from repro.mlsim.timeline import render_timeline
        print(render_timeline(result.timeline))
    print(f"model {result.model_name}: elapsed {result.elapsed_us:.1f} us, "
          f"{result.messages} messages, "
          f"{result.bytes_on_wire} payload bytes")
    print(f"  mean execution {result.mean_execution:12.1f} us")
    print(f"  mean rtsys     {result.mean_rtsys:12.1f} us")
    print(f"  mean overhead  {result.mean_overhead:12.1f} us")
    print(f"  mean idle      {result.mean_idle:12.1f} us")
    return 0
