"""``repro ingest``: translate a foreign trace and land it in the bench
trace cache."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import CACHE_RULE, print_json

HELP = ("translate a foreign trace (VEF text, MPI JSON-lines) into the "
        "native format and land it in the trace cache")
RULES = (CACHE_RULE,)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", metavar="FILE",
                        help="foreign trace file (see docs/ingest.md)")
    parser.add_argument("--reader", default=None, metavar="NAME",
                        help="trace reader plugin (default: sniff from "
                             "the file; readers: vef, mpijson)")
    parser.add_argument("--cells", type=int, default=None,
                        help="machine size to map onto (default: the "
                             "trace's rank count)")
    parser.add_argument("--time-unit", type=float, default=1.0,
                        metavar="US",
                        help="microseconds per foreign time unit "
                             "(default: 1.0)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="trace cache root (default: "
                             "benchmarks/.trace_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the cache; use with -o to just convert "
                             "the file")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="also write the translated trace here")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable repro-ingest-v1 output")


def main(args: argparse.Namespace) -> int:
    import time

    from repro.ingest.cache import land_in_cache
    from repro.ingest.mapper import ingest_file
    from repro.trace.io import save_trace

    t0 = time.perf_counter()
    result = ingest_file(args.source, reader=args.reader,
                         cells=args.cells, time_unit=args.time_unit)
    wall_s = time.perf_counter() - t0
    trace_path: Path | None = None
    cache_hit = False
    if not args.no_cache:
        cached = land_in_cache(result, args.source, reader=args.reader,
                               cache_dir=args.cache_dir, wall_s=wall_s)
        trace_path = cached.trace_path
        cache_hit = cached.cache_hit
    if args.output:
        save_trace(result.trace, args.output)
        trace_path = Path(args.output)
    if args.json:
        print_json({
            "schema": "repro-ingest-v1",
            "source": str(args.source),
            "reader": args.reader or "auto",
            "num_ranks": result.num_ranks,
            "num_cells": result.num_cells,
            "source_events": result.source_events,
            "synthesized_compute": result.synthesized_compute,
            "total_events": result.trace.total_events,
            "op_counts": dict(result.op_counts),
            "trace_path": str(trace_path) if trace_path else None,
            "cache_hit": cache_hit,
        })
        return 0
    print(f"ingested {args.source}: {result.source_events} foreign "
          f"records -> {result.trace.total_events} trace events on "
          f"{result.num_cells} cells ({result.num_ranks} ranks)")
    if result.synthesized_compute:
        print(f"  synthesized {result.synthesized_compute} COMPUTE "
              "events from timestamp gaps")
    counts = "  ".join(f"{op}={n}"
                       for op, n in sorted(result.op_counts.items()))
    print(f"  foreign op mix: {counts}")
    if trace_path is not None:
        hit = " (cache hit)" if cache_hit else ""
        print(f"  trace published at {trace_path}{hit}")
        print(f"  next: repro replay {trace_path} --preset ap1000+")
    return 0
