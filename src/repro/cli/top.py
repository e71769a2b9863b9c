"""``repro top``: an ASCII utilisation dashboard for a trace or a bench
artifact, or a live one over a growing stream trace or trace cache."""

from __future__ import annotations

import argparse
import contextlib
import json
from pathlib import Path

from repro.cli.common import DEFAULT_PRESET, Refused, Rule, print_json
from repro.core.errors import ConfigurationError
from repro.mlsim.params import PRESETS, preset

HELP = "ASCII utilization dashboard for a trace or bench artifact"
RULES = (
    Rule("TRACE", ("--micro",), "name one trace source"),
    Rule("--cells", ("TRACE",),
         "a trace file has its cell count; --cells sizes --micro"),
    Rule("--follow", ("--micro", "--cells", "--preset"),
         "--follow tails a file as it grows and replays nothing"),
    Rule("--interval", ("--follow",), "only --follow redraws",
         requires=True),
    Rule("--frames", ("--follow",), "only --follow redraws", requires=True),
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", nargs="?", metavar="TRACE",
                        help="trace file or BENCH_*.json artifact")
    parser.add_argument("--micro", action="store_true",
                        help="show the built-in micro workload")
    parser.add_argument("--cells", type=int, default=None,
                        help="cell count for --micro")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help=f"replay preset (default: {DEFAULT_PRESET})")
    parser.add_argument("--follow", action="store_true",
                        help="live mode: tail an in-progress stream trace "
                             "(`repro run --stream`) and redraw until it "
                             "completes, or list a bench campaign's "
                             "trace cache directory as entries land")
    parser.add_argument("--interval", type=float, default=1.0,
                        metavar="SEC",
                        help="--follow redraw interval (default: 1s)")
    parser.add_argument("--frames", type=int, default=None, metavar="N",
                        help="--follow: stop after N frames instead of "
                             "following to completion")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable repro-top-v1 output")


def _follow(args: argparse.Namespace) -> int:
    """Live dashboard: tail a stream trace or list a trace cache."""
    import time

    from repro.bench.cache import TraceCache
    from repro.obs.follow import (
        FollowState,
        follow_document,
        render_cache_follow,
        render_follow,
    )

    if not args.trace:
        raise ConfigurationError(
            "--follow needs a file to tail: a stream trace from "
            "`repro run --stream` or a bench campaign's cache directory")
    path = Path(args.trace)
    if not path.exists():
        raise ConfigurationError(f"nothing to follow: {path} does not "
                                 "exist (start the run first)")
    if path.is_dir() and args.json:
        raise Refused("--json with a cache directory TRACE: the cache "
                      "view is text only", ("--json", "TRACE"))
    # A cache has no end: it is listed until --frames or Ctrl-C.
    state = None if path.is_dir() else FollowState(path)
    frame = 0
    try:
        while True:
            if state is None:
                print(render_cache_follow(TraceCache(path)))
            else:
                state.poll()
                if args.json:
                    print_json(follow_document(state))
                else:
                    print(render_follow(state))
            frame += 1
            if ((state is not None and state.complete)
                    or (args.frames is not None and frame >= args.frames)):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def main(args: argparse.Namespace) -> int:
    from repro.bench.schema import SCHEMA_NAME, BenchArtifact
    from repro.cli.trace_export import source_trace
    from repro.mlsim.simulator import simulate
    from repro.obs import top as obs_top

    if args.follow:
        return _follow(args)
    data = None
    if args.trace:
        with contextlib.suppress(json.JSONDecodeError, UnicodeDecodeError):
            data = json.loads(Path(args.trace).read_text(encoding="utf-8"))
    if isinstance(data, dict) and data.get("schema") == SCHEMA_NAME:
        if args.preset:
            raise Refused("--preset with a bench artifact TRACE: the "
                          "artifact holds its own presets' replays",
                          ("--preset", "TRACE"))
        artifact = BenchArtifact.from_dict(data)
        if args.json:
            print_json(obs_top.bench_top_document(artifact))
        else:
            print(obs_top.render_bench_top(artifact))
        return 0
    result = simulate(source_trace(args), preset(args.preset
                                                 or DEFAULT_PRESET),
                      collect_metrics=True)
    if args.json:
        print_json(obs_top.top_document(result))
    else:
        print(obs_top.render_top(result))
    return 0
