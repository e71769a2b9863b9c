#!/usr/bin/env python
"""Host cost of the consume side of a trace, by trace size.

What it costs *the host* to take a recorded trace through the warm
path — ``load_trace`` (file -> buffer; the block mapped and checked,
no event built), ``load_trace_columns`` (file -> replay columns, what
``repro replay`` and the bench runner use),
``compile_program`` and ``replay_columns`` under each preset, the
cache entry's trace file (``save_trace_v2`` of a freshly loaded buffer)
and ``export`` (``obs.export.export_trace`` of a freshly loaded buffer
under ``ap1000+``: a recording replay and the Perfetto document)
— in microseconds of wall clock per trace event, minimum over
``--repeats`` runs, in the manner of the per-stage cost tables of the
OpenSHMEM-on-Epiphany paper.  The simulated elapsed time of the same
trace is printed in ``sim_us`` columns of its own; the two clock
domains never share a column.  Every replay collects its metrics, as
the bench runner's do.  ``replay calls`` is the profiled calls per
event of one ``ap1000+`` replay (the program compiled and the link plan
made beforehand, as ``tests/mlsim/test_replay_cost.py`` counts them), a
count that repeats exactly; ``--max-replay-calls TRACE N`` (once per
trace it holds) exits 1 naming each trace whose count exceeds its N (CI
passes that test's ceilings for CG and TC no st).

    python scripts/consume_cost.py [--json F] [--max-replay-calls TRACE N]...

(``PYTHONPATH`` set to another checkout's ``src`` measures that commit.)
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import pstats
import json
import sys
import tempfile
import time
from pathlib import Path

TRACES = (
    ("RingShift", 256, {"hops": 1024}),
    ("TC no st", 16, {"n": 65, "iters": 1, "use_stride": False}),
    ("CG", 16, {"n": 1400, "outer": 3, "inner": 25}),
)
PRESETS = ("ap1000", "ap1000-fast", "ap1000+")


def least(repeats: int, func, *args, **kwargs) -> tuple[float, object]:
    """Seconds of the fastest of ``repeats`` calls, and its result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--json", metavar="FILE",
                        help="also write the table as JSON to FILE")
    parser.add_argument("--max-replay-calls", nargs=2, action="append",
                        default=[], metavar=("TRACE", "N"),
                        help="exit 1 if one replay of TRACE makes more "
                        "than N profiled calls per trace event (repeat "
                        "per trace)")
    args = parser.parse_args()
    ceilings: dict[str, float] = {}
    for trace, ceiling in args.max_replay_calls:
        if trace not in {app for app, _, _ in TRACES}:
            parser.error(f"no trace {trace!r}; the traces are "
                         + ", ".join(app for app, _, _ in TRACES))
        try:
            ceilings[trace] = float(ceiling)
        except ValueError:
            parser.error(f"ceiling of {trace!r} is not a number: {ceiling!r}")

    if importlib.util.find_spec("repro") is None:
        # Not installed and no PYTHONPATH provides it: this checkout's.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.apps.workloads import workload
    from repro.mlsim.engine_soa import compile_program, replay_columns
    from repro.mlsim.params import preset
    from repro.obs.export import export_trace
    from repro.trace.io import load_trace, load_trace_columns, save_trace_v2

    presets = [preset(name) for name in PRESETS]
    stages = ["load", "decode", "compile",
              *(f"replay {name}" for name in PRESETS), "save", "export"]
    print(f"min of {args.repeats}; host_us = host wall clock per trace "
          "event, sim_us = simulated elapsed time of the whole trace")
    print(f"{'trace':>10} {'events':>7} "
          + " ".join(f"{s + ' host_us':>26}" for s in stages) + " "
          + f"{'replay calls':>13} "
          + " ".join(f"{name + ' sim_us':>19}" for name in PRESETS))
    rows = []
    calls: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as scratch:
        path, copy = Path(scratch, "trace.jsonl"), Path(scratch, "copy.jsonl")
        for app, cells, sizes in TRACES:
            run = workload(app).runner(num_cells=cells, **sizes)
            events = run.trace.total_events
            save_trace_v2(run.trace, path)

            cost = dict.fromkeys(stages, float("inf"))
            for _ in range(args.repeats):
                # A fresh buffer per round: it is saved from the arrays
                # it was mapped to.
                seconds, loaded = least(1, load_trace, path)
                cost["load"] = min(cost["load"], seconds)
                cost["save"] = min(
                    cost["save"], least(1, save_trace_v2, loaded, copy)[0])
                cost["export"] = min(cost["export"], least(
                    1, export_trace, load_trace(path), presets[-1])[0])
            cost["decode"], columns = least(
                args.repeats, load_trace_columns, path)
            sim = {}
            for name, params in zip(PRESETS, presets):
                seconds, program = least(
                    args.repeats, compile_program, columns, params)
                cost["compile"] = min(cost["compile"], seconds)
                cost[f"replay {name}"], result = least(
                    args.repeats, replay_columns, columns, params,
                    collect_metrics=True, program=program)
                sim[name] = result.elapsed_us
            plus = presets[PRESETS.index("ap1000+")]
            program = compile_program(columns, plus)
            program.index.link_plan()
            profile = cProfile.Profile()
            profile.runcall(replay_columns, columns, plus,
                            collect_metrics=True, program=program)
            calls[app] = pstats.Stats(profile).total_calls / events
            print(f"{app:>10} {events:>7} "
                  + " ".join(f"{cost[s] * 1e6 / events:>26.3f}"
                             for s in stages) + " "
                  + f"{calls[app]:>13.2f} "
                  + " ".join(f"{sim[name]:>19.1f}" for name in PRESETS))
            rows.append({
                "trace": app, "events": events,
                "file_bytes": path.stat().st_size,
                "host_us": {s: round(cost[s] * 1e6 / events, 4)
                            for s in stages},
                "replay_calls": round(calls[app], 4),
                "sim_us": sim})
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"repeats": args.repeats, "rows": rows}, out, indent=2)
            out.write("\n")
    over = [trace for trace, ceiling in ceilings.items()
            if calls[trace] > ceiling]
    for trace in over:
        print(f"FAIL: a {trace} replay makes {calls[trace]:.2f} calls per "
              f"event, more than its ceiling of {ceilings[trace]:g}")
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())
