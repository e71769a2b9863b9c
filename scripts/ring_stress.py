#!/usr/bin/env python
"""Two-process stress of the cross-shard mailbox (``ShmRing``).

A forked producer pushes ``--records`` pickled, numbered records through
a small ring in POSIX shared memory while this process pops and checks
them: every record must arrive whole and in order.  The ring is small
on purpose, so it runs empty and full thousands of times — the states
in which a counter published in more than one store lets the consumer
read a half-written value and parse stale bytes as a record.  Exits
non-zero on the first bad record.  Run by ``tests/machine/
test_shardmem.py`` (a quarter of a million records) and, for longer, by
the ``shard-smoke`` CI job:

    PYTHONPATH=src python scripts/ring_stress.py --records 2000000
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
import time
from multiprocessing import shared_memory

RING_BYTES = 4096
#: Seconds without a record before the consumer gives up on the producer.
STALL_S = 60.0


def record(index: int) -> tuple:
    return ("frame", index, b"x" * (index % 23))


def produce(ring, count: int) -> None:
    for index in range(count):
        payload = pickle.dumps(record(index))
        while not ring.try_push(payload):
            pass


def consume(ring, count: int) -> str | None:
    """Pop ``count`` records; the first defect as text, else None."""
    last = time.monotonic()
    for index in range(count):
        while (payload := ring.pop()) is None:
            if time.monotonic() - last > STALL_S:
                return f"no record for {STALL_S:g} s after {index}"
        last = time.monotonic()
        try:
            got = pickle.loads(payload)
        except Exception as exc:      # torn record: any unpickling error
            return f"record {index} does not unpickle: {exc!r}"
        if got != record(index):
            return f"record {index} arrived as {got!r}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=int, default=250_000)
    args = parser.parse_args()

    from repro.machine.shardmem import ShmRing

    segment = shared_memory.SharedMemory(create=True, size=16 + RING_BYTES)
    ring = ShmRing(segment.buf[:16 + RING_BYTES], RING_BYTES)
    try:
        start = time.monotonic()
        child = os.fork()
        if child == 0:
            status = 1
            try:
                produce(ring, args.records)
                status = 0
            finally:
                os._exit(status)
        defect: str | None = "consumer interrupted"
        try:
            defect = consume(ring, args.records)
        finally:
            if defect is not None:
                os.kill(child, signal.SIGKILL)
            _, status = os.waitpid(child, 0)
        if defect is None and status != 0:
            defect = f"producer exited with status {status}"
        if defect is not None:
            print(f"FAIL: {defect}", file=sys.stderr)
            return 1
        print(f"ok: {args.records} records through a {RING_BYTES}-byte ring "
              f"in {time.monotonic() - start:.1f} s")
        return 0
    finally:
        ring.close()
        segment.close()
        segment.unlink()


if __name__ == "__main__":
    raise SystemExit(main())
