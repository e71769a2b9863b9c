"""Every hardware counter after five fixed runs, as one JSON document.

The oracle of ``test_counter_golden.py``: per-cell ``state()`` of every
hardware part (MC with its MMU and both TLBs, cache, MSC+ with both DMA
engines, five queues and ``MSCStats``) and the T-net's, after runs that
between them take the contiguous PUT / GET / acknowledge path, the
blocking flag wait, large payloads, the stride DMA and the wire that
holds frames (drops, delays and spilling queues).  A path that is made
shorter must leave all of it as it was, so the file beside this script
is written by the commit *before* such a change and read, unedited, by
the test after it:

    PYTHONPATH=<parent checkout>/src python tests/hardware/counter_golden.py
"""

from __future__ import annotations

import dataclasses
import enum
import json
from collections import deque
from pathlib import Path

GOLDEN = Path(__file__).with_name("counter_golden.json")


def _tomcatv(use_stride, n=33):
    from repro.apps import tomcatv
    return tomcatv.run(4, n=n, iters=1, use_stride=use_stride)


def _ping_pong():
    from repro.apps.latency import run_ping_pong
    return run_ping_pong(4, iters=256)


def _matmul():
    from repro.apps import matmul
    return matmul.run(8, n=128)


def _held_wire():
    from repro.faults.plan import FaultPlan, applied
    plan = FaultPlan(name="squeeze", seed=1999, drop_rate=0.01,
                     delay_rate=0.05, queue_capacity_words=16)
    with applied(plan):
        return _tomcatv(False, n=17)


RUNS = {
    "tomcatv_no_stride": lambda: _tomcatv(False),
    "ping_pong": _ping_pong,
    "matmul": _matmul,
    "tomcatv_stride": lambda: _tomcatv(True),
    "held_wire": _held_wire,
}


def jsonable(value):
    """``value`` in JSON's vocabulary: mappings with string keys, sets
    sorted, dataclasses (page entries, packets) by field."""
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(item) for item in value)
    if isinstance(value, (list, tuple, deque)):
        return [jsonable(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, bytes):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return jsonable({f.name: getattr(value, f.name)
                         for f in dataclasses.fields(value)})
    return value


def collect() -> dict:
    """``{run: {"cells": [state, ...], "tnet": state}}`` of :data:`RUNS`."""
    document = {}
    for name, run in RUNS.items():
        outcome = run()
        assert outcome.verified, name
        machine = outcome.machine
        cells = [jsonable(cell.state()) for cell in machine.hw_cells]
        for cell in cells:
            # 128 registers a cell: no message touches them, and they
            # would be half the file.
            del cell["mc"]["registers"]
        document[name] = {"cells": cells,
                          "tnet": jsonable(machine.tnet.state())}
    return document


def main() -> None:
    lines = []
    for name, states in collect().items():
        cells = ",\n".join("   " + json.dumps(cell, sort_keys=True)
                           for cell in states["cells"])
        lines.append(f' {json.dumps(name)}: {{"cells": [\n{cells}],\n'
                     f'  "tnet": {json.dumps(states["tnet"], sort_keys=True)}'
                     "}")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
