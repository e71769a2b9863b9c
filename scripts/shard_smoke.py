#!/usr/bin/env python
"""Byte-identity smoke check: sharded engine vs the serial one.

Runs each requested workload twice — serially and sharded — and
compares trace digests, memory digests, per-cell result digests,
``AppStatistics`` and the per-cell flag-increment counts.  Exits
non-zero on the first mismatch.  Used by the ``shard-smoke`` CI job and
handy for local bring-up:

    PYTHONPATH=src python scripts/shard_smoke.py --shards 2 EP MatMul
"""

from __future__ import annotations

import argparse
import os
import sys


def run_one(name: str, shards: int, num_cells: int | None):
    os.environ["REPRO_MACHINE_SHARDS"] = str(shards)
    try:
        from repro.apps.workloads import workload

        kwargs = {}
        if num_cells is not None:
            kwargs["num_cells"] = num_cells
        return workload(name).run(**kwargs)
    finally:
        os.environ.pop("REPRO_MACHINE_SHARDS", None)


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # non-Linux: rely on live_segment_names alone
        return set()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("apps", nargs="*", default=None)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--num-cells", type=int, default=None)
    args = parser.parse_args()
    apps = args.apps or ["EP", "MatMul"]

    from repro.faults.chaos import (
        memory_digest,
        results_digest,
        trace_digest,
    )
    from repro.machine.shardmem import live_segment_names

    shm_before = _shm_entries()
    failures = 0
    for name in apps:
        serial = run_one(name, 1, args.num_cells)
        sharded = run_one(name, args.shards, args.num_cells)
        engine = sharded.machine.engine
        if engine["loop"] != "sharded":
            print(f"FAIL {name}: ran the serial {engine['loop']} loop "
                  f"({engine['fallback']})")
            failures += 1
            continue
        checks = {
            "verified": sharded.verified and serial.verified,
            "trace": (trace_digest(serial.trace)
                      == trace_digest(sharded.trace)),
            "memory": (memory_digest(serial.machine)
                       == memory_digest(sharded.machine)),
            "results": (results_digest(serial.results)
                        == results_digest(sharded.results)),
            "stats": serial.statistics == sharded.statistics,
            # The parent holds what the owning workers' cells held.
            "hardware": ([c.mc.flag_increments
                          for c in serial.machine.hw_cells]
                         == [c.mc.flag_increments
                             for c in sharded.machine.hw_cells]),
        }
        bad = [k for k, ok in checks.items() if not ok]
        if bad:
            print(f"FAIL {name} (shards={args.shards}): {', '.join(bad)}")
            failures += 1
        else:
            print(f"ok   {name} (shards={args.shards}): byte-identical, "
                  f"{serial.trace.total_events} events")

    leaked = sorted(live_segment_names())
    new_shm = sorted(_shm_entries() - shm_before)
    if leaked or new_shm:
        print(f"FAIL shm leak: live={leaked} new_in_dev_shm={new_shm}")
        failures += 1
    else:
        print("ok   no shared-memory segments leaked")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
