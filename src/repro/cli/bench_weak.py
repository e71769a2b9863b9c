"""``repro bench weak``: the weak-scaling study (Figure 8 extended to
256-4096 cells on the sharded engine)."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

HELP = ("weak-scaling study: Figure 8 extended to 256-4096 cells on the "
        "sharded engine")
RULES = ()


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--points", nargs="*", type=int, metavar="CELLS",
                        default=None,
                        help="machine sizes (default 256 1024 4096; sizes "
                             "past 1024 use extended=True)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="worker processes per sharded run (default 4)")
    parser.add_argument("--apps", nargs="*", metavar="APP",
                        choices=["EP", "RingShift"], default=None,
                        help="restrict the study's apps")
    parser.add_argument("--output", metavar="FILE",
                        default="BENCH_weak_scaling.json",
                        help="artifact path (default "
                             "BENCH_weak_scaling.json)")


def main(args: argparse.Namespace) -> int:
    from repro.bench.weak import WEAK_POINTS, WEAK_SHARDS, run_weak

    document = run_weak(points=tuple(args.points or WEAK_POINTS),
                        shards=args.shards or WEAK_SHARDS,
                        apps=tuple(args.apps) if args.apps else None,
                        log=print)
    path = Path(args.output)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"weak-scaling artifact written to {path} "
          f"({len(document['rows'])} rows, byte-identity asserted)")
    return 0
