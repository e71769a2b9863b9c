"""``repro run``: run one workload functionally and replay its trace."""

from __future__ import annotations

import argparse
import contextlib
import shlex
import signal
import sys

from repro.apps.workloads import ORDER
from repro.ckpt.policy import clear_interrupt, request_interrupt
from repro.cli.common import (EXIT_RESUMABLE, Refused, Rule, command_line,
                              on_signals, print_json)
from repro.core.errors import CheckpointInterrupt, ConfigurationError

HELP = "run one workload functionally"
RULES = (
    Rule("--stream", ("--resume-from",),
         "a restored run continues the trace buffer it saved, which no "
         "stream is bound to, so nothing would be streamed"),
    Rule("--stream", ("--shards",),
         "the sharded engine records per worker and merges at the end, "
         "so nothing would stream live"),
    Rule("--resume-from", ("--sanitize", "--trace-capacity"),
         "a resumed run records into its snapshot's trace buffer, whose "
         "footprints and capacity the snapshot fixes"),
    Rule("--observe", ("--resume-from", "--checkpoint-dir",
                       "--checkpoint-every"),
         "a snapshot cannot carry the observer's telemetry"),
)
#: The option behind each workload identity setting a snapshot can
#: refuse (``ConfigurationError.fields``).
_IDENTITY = {"workload": "APP", "num_cells": "--cells",
             "params": "--paper-scale"}
#: What a resume command leaves out of the interrupted command: its own
#: ``--resume-from`` and each option refused beside one.
_NOT_RESUMED = {"--resume-from"} | {
    name for rule in RULES
    for name in (rule.others if rule.option == "--resume-from"
                 else (rule.option,) if "--resume-from" in rule.others
                 else ())}


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", metavar="APP", choices=list(ORDER),
                        help="one of " + ", ".join(ORDER))
    parser.add_argument("--cells", type=int, default=None,
                        help="override the cell count")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's problem size")
    parser.add_argument("--trace", metavar="FILE",
                        help="write the recorded trace (a v2 column file) "
                             "to FILE")
    parser.add_argument("--stream", metavar="FILE",
                        help="stream the trace to FILE incrementally while "
                             "the run executes (bounded memory; tail it "
                             "live with `repro top FILE --follow`)")
    parser.add_argument("--no-replay", action="store_true",
                        help="skip the MLSim replay summary")
    parser.add_argument("--sanitize", action="store_true",
                        help="annotate the trace with byte-range "
                             "footprints for `repro check`")
    parser.add_argument("--trace-capacity", type=int, default=None,
                        metavar="N",
                        help="override the trace buffer's event capacity "
                             "(the AP1000 probes had the same limit)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="run on the sharded multiprocess engine with "
                             "N worker processes (byte-identical traces; "
                             "see docs/sharding.md)")
    parser.add_argument("--observe", action="store_true",
                        help="attach the repro.obs machine observer "
                             "(per-link traffic, queue occupancy)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="save machine snapshots here; also makes "
                             "SIGINT/SIGTERM park at the next safe point, "
                             "save a final snapshot, and exit "
                             f"{EXIT_RESUMABLE} with a resume command "
                             "(docs/checkpoint.md)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="checkpoint every N safe points per cell")
    parser.add_argument("--resume-from", metavar="SNAPSHOT", default=None,
                        help="resume from a snapshot directory (or a "
                             "--checkpoint-dir, which picks its latest "
                             "snapshot) instead of starting fresh")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable repro-run-v1 output")


def _checkpoint_now(signum: int, frame: object) -> None:
    """Park at the next safe point, save a snapshot, exit resumable."""
    request_interrupt()
    print("interrupt: saving a checkpoint at the next safe point "
          "(signal again to kill immediately)", file=sys.stderr)


def main(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.apps.workloads import workload
    from repro.bench.cache import jsonify
    from repro.machine.config import MachineConfig
    from repro.mlsim.simulator import simulate_models
    from repro.obs.observer import machine_metrics
    from repro.trace.buffer import DEFAULT_CAPACITY
    from repro.trace.io import save_trace
    from repro.trace.stats import format_table3_row

    w = workload(args.app)
    cells = args.cells or (w.paper_pes if args.paper_scale
                           else w.default_pes)
    config = MachineConfig(
        num_cells=cells, sanitize=args.sanitize, observe=args.observe,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir, shards=args.shards or 0,
        trace_capacity=(DEFAULT_CAPACITY if args.trace_capacity is None
                        else args.trace_capacity))
    stream_writer = None
    stream: contextlib.AbstractContextManager = contextlib.nullcontext()
    if args.stream:
        from repro.trace.buffer import streaming_to
        from repro.trace.io import StreamTraceWriter

        stream_writer = StreamTraceWriter(args.stream)
        stream = streaming_to(stream_writer)
    interrupt = (on_signals(_checkpoint_now, signal.SIGINT, signal.SIGTERM,
                            once=True)
                 if args.checkpoint_dir else contextlib.nullcontext())
    try:
        with interrupt, stream:
            run = w.run(paper_scale=args.paper_scale, num_cells=cells,
                        config=config, resume_from=args.resume_from)
    except CheckpointInterrupt as exc:
        print(f"{args.app}: interrupted; snapshot saved to "
              f"{exc.snapshot_path}")
        print("resume with: " + shlex.join(
            command_line(args, args.parser, drop=tuple(_NOT_RESUMED))
            + ["--resume-from", str(exc.snapshot_path)]))
        return EXIT_RESUMABLE
    except ConfigurationError as exc:
        if not (args.resume_from and exc.fields):
            raise
        options = tuple(_IDENTITY.get(name, name) for name in exc.fields)
        raise Refused(f"{' / '.join(options)} with --resume-from: {exc}",
                      (*options, "--resume-from")) from None
    finally:
        clear_interrupt()
        # On success this lands the footer; on a crash or checkpoint
        # interrupt it flushes what was recorded so the file stays
        # tailable/loadable.
        if stream_writer is not None:
            stream_writer.close()
    # Statistics and the trace file must be taken before any replay:
    # replays coalesce (mutate) the trace buffer.
    statistics = run.statistics
    total_events = run.trace.total_events
    if args.trace:
        save_trace(run.trace, args.trace)
    speedups = None
    if not args.no_replay:
        plus, fast = simulate_models(run.trace).table2_row()
        speedups = {"ap1000+": plus, "ap1000-fast": fast}
    machine = run.machine
    report = getattr(machine, "shard_report", None)
    if args.json:
        print_json({
            "schema": "repro-run-v1",
            "app": run.name,
            "cells": config.num_cells,
            "verified": bool(run.verified),
            "checks": jsonify(run.checks),
            "total_events": total_events,
            "statistics": jsonify(asdict(statistics)),
            "speedups_vs_ap1000": speedups,
            "metrics": jsonify(machine_metrics(machine)),
            "engine": machine.engine,
            "shard_report": jsonify(report),
            "trace_file": args.trace,
        })
        return 0 if run.verified else 1
    status = "VERIFIED" if run.verified else "FAILED"
    print(f"{run.name}: functional run {status} on {config.num_cells} "
          f"cells, {total_events} trace events")
    if report is not None:
        busy = max(report["worker_busy_s"])
        print(f"  sharded over {report['shards']} workers: critical path "
              f"{report['critical_path_s']:.3f}s (slowest worker "
              f"{busy:.3f}s + replay {report['replay_s']:.3f}s)")
    if machine.engine["fallback"] is not None:
        print(f"  sharded engine not used ({machine.engine['fallback']}): "
              f"ran the serial {machine.engine['loop']} loop")
    for name, value in run.checks.items():
        print(f"  check {name}: {value}")
    print(format_table3_row(run.name, statistics))
    for label, path in (("trace", args.trace), ("stream trace", args.stream)):
        if path:
            print(f"{label} written to {path}")
    if speedups is not None:
        print(f"Table 2 speedups vs AP1000: AP1000+ "
              f"{speedups['ap1000+']:.2f}, "
              f"AP1000/SuperSPARC {speedups['ap1000-fast']:.2f}")
    return 0 if run.verified else 1
