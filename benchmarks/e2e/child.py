"""One benchmark child: a fresh interpreter that runs a workload's unit
of work several times and reports every stage of every unit.

Started by ``run.py``.  The child drives the simulator through its
public functions only and prints one JSON object as the last line of its
standard output: stage spans, the facts the driver checks (event count,
digests, simulated elapsed times) and, with ``--profile``, what cProfile
saw.

Units are small (a few tenths of a second) and many on purpose: the
shared hosts this runs on slow a core down in bursts, so every unit has
a calibration sample on either side that tells the driver how slow the
host was just then (README, "host hazards").  Several machines in one
process are safe only with glibc's mmap threshold pinned, which
``pin_mmap_threshold`` does.
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import gc
import importlib
import json
import os
import random
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
PACKAGE = str(SRC / "repro") + os.sep

PRESETS = ("ap1000", "ap1000-fast", "ap1000+")

#: ``repro`` subpackages that get their own self-time share; the rest of
#: ``repro`` (check, ingest, analysis, cli) lands in ``other``.
LAYERS = ("apps", "lang", "core", "machine", "hardware", "network",
          "trace", "mlsim", "bench", "faults", "ckpt", "obs")

#: Share of the size parameter by which a non-zero seed moves it.  Small
#: on purpose: ``wall_norm`` follows the size, and the spread of ``wall_norm``
#: over seeds has to stay well inside its bound.
JITTER = 0.01

#: Size of the calibration kernel: about 25 ms, a tenth of a unit.
CALIBRATION_STEPS = 100_000

RECORD = ("apps.record", "bench.cache_put")
CONSUME = ("bench.cache_get", "trace.decode", "mlsim.replay")


@dataclass(frozen=True)
class Spec:
    """One workload: what is recorded, and which stages a unit times."""

    app: str                      # name in repro.apps.workloads.WORKLOADS
    cells: int
    params: dict[str, Any]        # the sizes of seed 0
    jitter: str                   # the parameter other seeds perturb
    quick: tuple[int, dict[str, Any]]   # (cells, params) of --quick
    timed: tuple[str, ...]        # stages whose spans add up to a unit
    loops: int = 1                # decode + replay sweeps per unit


SPECS = {
    "sync_chain": Spec(
        "RingShift", 256, {"hops": 1024}, "hops",
        (32, {"hops": 256}), RECORD + CONSUME),
    "bulk_transfer": Spec(
        "MatMul", 32, {"n": 800}, "n",
        (8, {"n": 128}), RECORD + CONSUME),
    "msg_storm": Spec(
        "TC no st", 16, {"n": 65, "iters": 1, "use_stride": False}, "n",
        (4, {"n": 33, "iters": 1, "use_stride": False}), RECORD + CONSUME),
    "wide_machine": Spec(
        "RingShift", 1024, {"hops": 256}, "hops",
        (256, {"hops": 64}), RECORD + CONSUME),
    # Recording is set-up here, once per child; a unit is the warm path,
    # with the trace written beside being read.
    "replay_sweep": Spec(
        "CG", 16, {"n": 1400, "outer": 3, "inner": 25}, "n",
        (4, {"n": 200, "outer": 1, "inner": 5}),
        CONSUME + ("trace.load", "trace.save"), loops=4),
}

#: Functions whose call counts are reported exactly; looked up by name so
#: that a rename shows as a dropped count, not as a crash.
COUNTED = {
    "hardware.msc_deliver.calls": "repro.hardware.msc:MSCPlus.deliver",
    "hardware.cache_invalidate_range.calls":
        "repro.hardware.cache:WriteThroughCache.invalidate_range",
    "hardware.memory_write.calls": "repro.hardware.memory:CellMemory.write",
    "hardware.queue_push.calls": "repro.hardware.queues:CommandQueue.push",
    "network.tnet_inject.calls": "repro.network.tnet:TNet.inject",
    "machine.pump.calls": "repro.machine.machine:Machine.pump",
    "machine.wake_group.calls": "repro.machine.machine:Machine.wake_group",
    "machine.ctx_put.calls": "repro.machine.program:CellContext.put",
    "machine.ctx_flag_wait.calls":
        "repro.machine.program:CellContext.flag_wait",
    "trace.record.calls": "repro.trace.buffer:TraceBuffer.record",
}
CUMULATIVE = {
    "machine.build_s": "repro.machine.machine:Machine.__init__",
    "machine.run_s": "repro.machine.machine:Machine.run",
}


def resolve(spec: Spec, seed: int, quick: bool) -> tuple[int, dict[str, Any]]:
    """The machine size and parameters of ``seed``; seed 0 is exact."""
    cells, params = spec.quick if quick else (spec.cells, spec.params)
    params = dict(params)
    if seed:
        shift = random.Random(seed).uniform(-JITTER, JITTER)
        params[spec.jitter] = round(params[spec.jitter] * (1 + shift))
    return cells, params


def disable_thp() -> bool:
    """Best effort: keep this process off transparent huge pages, which
    make peak RSS and wall time bimodal when the host sets ``always``."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        return libc.prctl(41, 1, 0, 0, 0) == 0    # PR_SET_THP_DISABLE
    except (OSError, AttributeError):
        return False


def pin_mmap_threshold() -> bool:
    """Keep 16 MB cell buffers on fresh demand-zero mappings for every
    machine of this process, not only the first; the remedy of
    ``repro.bench.weak._pin_mmap_threshold``.  Without it glibc raises
    its threshold when the first machine is freed, and later machines
    pay a memset per cell (a second 1024-cell machine is OOM-killed)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        libc.mallopt.restype = ctypes.c_int
        return libc.mallopt(-3, 1 << 20) == 1     # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        return False


def calibrate() -> float:
    """Seconds this host needs right now for a fixed piece of interpreter
    work (dict, list, attribute, generator and small-array traffic, the
    simulator's own diet).  Run before and after every unit: the driver
    divides a unit's time by how much slower than the reference host
    this one was around it.  It touches nothing of ``repro``, so a
    change to the simulator cannot move it."""
    import numpy

    class Cell:
        __slots__ = ("value",)

    def ticks(n: int) -> Iterator[int]:
        yield from range(n)

    start = time.perf_counter()
    table: dict[int, int] = {}
    cell, queue, total = Cell(), [], 0
    buffer = numpy.zeros(4096)
    for i in ticks(CALIBRATION_STEPS):
        table[i & 511] = total
        total += table.get((i * 7) & 511, 0) & 1023
        cell.value = i
        queue.append(cell.value)
        if len(queue) > 64:
            queue.clear()
        if not i & 15:
            buffer[i & 1023:(i & 1023) + 64] = numpy.zeros(64)
    return time.perf_counter() - start


def _code_key(target: str) -> tuple[str, int, str] | None:
    """The cProfile stats key of ``module:Class.method``, or None when
    it is gone."""
    module, _, qualname = target.partition(":")
    try:
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
    except (ImportError, AttributeError):
        return None
    return code.co_filename, code.co_firstlineno, code.co_name


def _bucket(filename: str) -> str:
    """The layer a profiled function's file belongs to."""
    if filename.startswith(PACKAGE):
        top = filename[len(PACKAGE):].split(os.sep)[0]
        return top if top in LAYERS else "other"
    if filename.startswith(("~", "<")) or "numpy" in Path(filename).parts:
        return "numpy_builtin"         # C functions show up as "~"
    return "other"


def summarize(timed: cProfile.Profile, other: cProfile.Profile) -> dict:
    """Self time and calls per layer over the timed stages, exact call
    counts over the timed stages, and cumulative time of the machine's
    build and run wherever they happened."""
    timed.create_stats()
    other.create_stats()
    stats = timed.stats                          # type: ignore[attr-defined]
    self_s = dict.fromkeys((*LAYERS, "numpy_builtin", "other"), 0.0)
    calls = dict.fromkeys(self_s, 0)
    for (filename, _, _), (_, ncalls, tottime, _, _) in stats.items():
        bucket = _bucket(filename)
        self_s[bucket] += tottime
        calls[bucket] += ncalls
    dropped = []

    def column(table: dict[str, str], index: int, *sources: dict) -> dict:
        """One stats column (1: calls, 3: cumulative seconds) per named
        function, summed over ``sources``."""
        out = {}
        for name, target in table.items():
            key = _code_key(target)
            if key is None:
                dropped.append(name)
            out[name] = sum(s[key][index] for s in sources if key in s)
        return out

    return {"self_s": self_s, "calls": calls,
            "counts": column(COUNTED, 1, stats),
            "cumulative_s": column(
                CUMULATIVE, 3, stats,
                other.stats),                    # type: ignore[attr-defined]
            "dropped": dropped}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--units", type=int, default=1)
    parser.add_argument("--work-dir", required=True, type=Path,
                        help="existing directory for this child's files")
    parser.add_argument("--profile", action="store_true",
                        help="run the units under cProfile, then the "
                             "load, save, check and export stages")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    thp_off = disable_thp()
    mmap_pinned = pin_mmap_threshold()
    sys.path.insert(0, str(SRC))
    import numpy

    from repro.apps.workloads import workload
    from repro.bench.cache import TraceCache, load_cached_columns
    from repro.faults.chaos import memory_digest, trace_digest
    from repro.mlsim.engine_soa import replay_columns
    from repro.mlsim.params import preset
    from repro.trace.io import load_trace, save_columns_npz, save_trace_v2

    spec = SPECS[args.workload]
    cells, params = resolve(spec, args.seed, args.quick)
    config = {"num_cells": cells, **params}
    presets = {name: preset(name) for name in PRESETS}
    records = "apps.record" in spec.timed

    spans: list[dict[str, Any]] = []
    profiles = ((cProfile.Profile(), cProfile.Profile())
                if args.profile else None)
    unit = -1                     # -1 outside the units, else their index

    @contextmanager
    def stage(name: str, *, extra: bool = False) -> Iterator[None]:
        # Timed stages feed the self-time shares.  Recording outside the
        # units (replay_sweep) is profiled apart, only for the machine's
        # cumulative build and run time; the extra stages run
        # unprofiled, so their spans read true.
        profile = None
        if profiles and not extra:
            profile = profiles[0 if name in spec.timed else 1]
            profile.enable()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if profile:
                profile.disable()
            spans.append({"name": name, "start": start, "end": end,
                          "unit": unit, "profiled": profile is not None})

    def record(cache: Any) -> dict[str, Any]:
        """Record the trace into ``cache``; the facts of the recording,
        taken before any consumer (replay coalesces in place)."""
        with stage("apps.record"):
            run = workload(spec.app).runner(num_cells=cells, **params)
        facts = {
            "events": run.trace.total_events,
            "verified": bool(run.verified),
            "trace_digest": trace_digest(run.trace),
            "memory_digest": memory_digest(run.machine),
            "shard_report": getattr(run.machine, "shard_report", None),
        }
        with stage("bench.cache_put"):
            cache.put(spec.app, config, run,
                      spans[-1]["end"] - spans[-1]["start"])
        return facts

    def load_and_save(path: Path, *, extra: bool = False) -> Any:
        """Read the cached trace and write it back in both formats."""
        with stage("trace.load", extra=extra):
            trace = load_trace(path)
        with stage("trace.save", extra=extra):
            save_trace_v2(trace, Path(scratch, "trace.jsonl"))
            save_columns_npz(trace, Path(scratch, "columns.npz"))
        return trace

    facts: list[dict[str, Any]] = []
    with tempfile.TemporaryDirectory(dir=args.work_dir) as scratch:
        cache = TraceCache(Path(scratch, "cache"))
        recorded = None if records else record(cache)
        ready_at = time.perf_counter()

        calibration = [calibrate()]       # sample k precedes unit k
        for unit in range(args.units):
            if records:
                # A cold cache per unit, as on a first `repro bench run`.
                cache = TraceCache(Path(scratch, f"cache{unit}"))
                fact = record(cache)
            else:
                fact = dict(recorded)
            with stage("bench.cache_get"):
                cached = cache.get(spec.app, config)
            if cached is None:
                raise RuntimeError("trace cache missed the entry just put")
            # Trace and sidecar, not meta.json: its timestamp and wall
            # time change length from run to run.
            fact["save_bytes"] = sum(
                f.stat().st_size for f in cached.trace_path.parent.iterdir()
                if f.name != "meta.json")
            if "trace.load" in spec.timed:
                fact["loaded_digest"] = trace_digest(
                    load_and_save(cached.trace_path))
            elapsed: dict[str, set[float]] = {name: set() for name in PRESETS}
            for _ in range(spec.loops):
                with stage("trace.decode"):
                    columns = load_cached_columns(cached.trace_path)
                for name in PRESETS:
                    with stage("mlsim.replay"):
                        result = replay_columns(
                            columns, presets[name], collect_metrics=True)
                    elapsed[name].add(result.elapsed_us)
            fact["elapsed_us"] = {n: min(v) for n, v in elapsed.items()}
            fact["elapsed_stable"] = all(len(v) == 1 for v in elapsed.values())
            facts.append(fact)
            gc.collect()          # the unit's machine goes before the next
            calibration.append(calibrate())

        if args.profile:
            from repro.check.runner import check_trace
            from repro.obs.export import export_trace

            unit = -1
            trace = load_and_save(cached.trace_path, extra=True)
            with stage("check.check", extra=True):
                check_trace(trace, spec.app)
            with stage("obs.export", extra=True):
                export_trace(trace, presets["ap1000+"])

    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "config": config,
        "timed": list(spec.timed), "loops": spec.loops,
        "ready_at": ready_at, "spans": spans, "facts": facts,
        "calibration": calibration,
        "peak_rss_mb": max(usage) / 1024.0,      # ru_maxrss is KiB on Linux
        "thp_disabled": thp_off, "mmap_pinned": mmap_pinned,
        "numpy": numpy.__version__, "code_version": cache.version,
        "profile": summarize(*profiles) if profiles else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
