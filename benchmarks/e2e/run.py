"""Benchmark of the simulator's host cost: what `BENCHMARK.json` runs.

    python benchmarks/e2e/run.py [--seed N] [--trace] [--quick] [--out F]
        all workloads, children interleaved round-robin; prints every
        metric by name with its unit and writes a result JSON
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload inside a time budget; the last line of standard
        output is one JSON object with `correct`, `attempted`, `failed`
        and `metrics` (end-to-end with --trace 0, per-layer with 1)
    python benchmarks/e2e/run.py --compare A.json B.json
        B against A, per end-to-end metric and workload, by the bounds in
        BENCHMARK.json; exit 1 when any is exceeded
    python benchmarks/e2e/run.py --repin
        rewrite expected.json from one unit of each workload at seed 0

Children (`child.py`) run one at a time; each runs a workload's unit of
work several times with a calibration kernel in between.  The gated
`*_norm` metrics and `setup_s` are seconds divided by the slowdown the
calibration saw; `host.wall_s` and `host.setup_s` are the clock's own
readings.  Simulated microseconds (`sim_us`) never share a metric with
host seconds.  README.md in this directory explains the workloads, the
metrics and how to read a --trace dump.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from child import LAYERS, PRESETS, SPECS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
CONTRACT = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
#: Everything the benchmark writes lives here (git-ignored): a work
#: directory per run, removed on exit, and the children's bytecode.
WORK = HERE / ".work"

SCHEMA = "repro-e2e-bench-v1"
CHILD_TIMEOUT_S = 120.0
UNITS_PER_CHILD = 3
TRACED_UNITS = 2
#: What `child.calibrate` takes on the undisturbed reference host (Xeon
#: 2.1 GHz, CPython 3.11.7).  Host seconds are reported as they would
#: read there: a unit's seconds times this over the calibration measured
#: around the unit.  A constant, not a per-run minimum: on a busy host
#: no sample of a run is undisturbed, and the minimum wanders by 15 %.
CALIBRATION_REFERENCE_S = 0.025
#: Facts of a child that must equal the pinned ones (seed 0) and must
#: not change from one repetition to the next (every seed).
FACT_KEYS = ("events", "trace_digest", "memory_digest", "elapsed_us")
#: The one workload whose full traced run also records on the sharded
#: engine (cost that grows with the cell count is what sharding is for).
SHARD_PROBE = "wide_machine"
SHARD_ENV = {"REPRO_MACHINE_SCHEDULER": "sharded",
             "REPRO_MACHINE_SHARDS": "2"}


def spawn(name: str, seed: int, work: Path, *flags: str, quick: bool,
          env: dict[str, str] | None = None,
          timeout: float = CHILD_TIMEOUT_S) -> dict[str, Any]:
    """Run one child to its end.  A child that fails or overruns is
    reported as ``{"ok": False, "error": ...}``, never raised."""
    cmd = [sys.executable, str(CHILD), "--workload", name,
           "--seed", str(seed), "--work-dir", str(work), *flags]
    if quick:
        cmd.append("--quick")
    # Bytecode goes under WORK instead of beside the sources: imports
    # cost what they cost a user, and src/ stays untouched.
    child_env = {k: v for k, v in os.environ.items()
                 if k != "PYTHONDONTWRITEBYTECODE"}
    child_env.update(PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
                     PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                     OMP_NUM_THREADS="1", **(env or {}))
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"no result within {timeout:g} s"}
    finally:
        if proc.poll() is None:
            # Its own session, so shard workers go down with it.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    finished = time.perf_counter()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(out.splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return {"ok": False, "error": f"{exc}: {err.strip()[-500:]}"}
    # perf_counter is CLOCK_MONOTONIC on Linux: one clock for all
    # processes, so the child's ready time minus our spawn time is the
    # interpreter start + imports + input construction.
    result.update(ok=True, setup_s=result["ready_at"] - spawned,
                  total_s=finished - spawned)
    return result


def stage_seconds(child: dict[str, Any], unit: int) -> dict[str, float]:
    """Seconds per stage in one unit of a child (-1: outside the units)."""
    totals: dict[str, float] = {}
    for span in child["spans"]:
        if span["unit"] == unit:
            totals[span["name"]] = (totals.get(span["name"], 0.0)
                                    + span["end"] - span["start"])
    return totals


def unit_walls(child: dict[str, Any]) -> list[float]:
    """The timed section of each unit: the sum of its timed stages."""
    walls = []
    for unit in range(len(child["facts"])):
        stages = stage_seconds(child, unit)
        walls.append(sum(stages[name] for name in child["timed"]))
    return walls


def stat(unit: str, samples: list[float]) -> dict[str, Any]:
    """A metric: the median of its samples, with their range."""
    return {"value": statistics.median(samples), "unit": unit,
            "min": min(samples), "max": max(samples), "n": len(samples)}


@dataclass
class Tally:
    """Everything measured and checked for one workload in one run."""

    name: str
    seed: int
    quick: bool
    work: Path
    #: Pinned facts at seed 0; otherwise filled by the first unit, so
    #: that later units are held to it.
    reference: dict[str, Any]
    plain: list[dict[str, Any]] = field(default_factory=list)
    traced: dict[str, Any] | None = None
    sharded: dict[str, Any] | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    longest_s: float = 0.0

    def launch(self, label: str, *flags: str, units: int,
               env: dict[str, str] | None = None) -> dict[str, Any]:
        child = spawn(self.name, self.seed, self.work, "--units",
                      str(units), *flags, quick=self.quick, env=env)
        child["label"] = label
        if child["ok"]:
            self.longest_s = max(self.longest_s, child["total_s"])
        return child

    def check(self, child: dict[str, Any]) -> dict[str, Any]:
        """Count a child's checks; a failure is recorded, not raised."""
        label = child["label"]
        self.attempted += 1
        if not child["ok"]:
            self.failures.append(f"{label}: {child['error']}")
            return child
        for unit, facts in enumerate(child["facts"]):
            pairs = [("verified", facts["verified"], True),
                     ("elapsed_stable", facts["elapsed_stable"], True)]
            pairs += [
                (key, facts[key], self.reference.setdefault(key, facts[key]))
                for key in FACT_KEYS]
            if "loaded_digest" in facts:      # the trace survives the cache
                pairs.append(("loaded_digest", facts["loaded_digest"],
                              self.reference["trace_digest"]))
            for key, got, want in pairs:
                self.attempted += 1
                if got != want:
                    self.failures.append(
                        f"{label} unit {unit}: {key} is {got!r}, "
                        f"expected {want!r}")
        return child

    def rep(self, units: int) -> None:
        child = self.check(self.launch(f"child{len(self.plain)}",
                                       units=units))
        if child["ok"]:
            self.plain.append(child)

    def trace(self) -> None:
        """The traced child: units under cProfile, then the extra
        stages."""
        child = self.check(self.launch("traced", "--profile",
                                       units=TRACED_UNITS))
        if child["ok"]:
            self.traced = child

    def probe_sharded(self) -> None:
        """One unit recorded on the sharded engine: a crash, or a result
        that differs from the serial one, is a failed check."""
        probe = self.check(self.launch("sharded", units=1, env=SHARD_ENV))
        self.attempted += 1
        if probe["ok"] and probe["facts"][0]["shard_report"]:
            self.sharded = probe
        else:
            self.failures.append("sharded: no sharded run to report")

    # -- metrics -------------------------------------------------------

    @property
    def handled(self) -> int:
        """Trace events one unit handles: recorded once, or replayed
        under every preset on every loop."""
        spec = SPECS[self.name]
        events = self.reference.get("events", 0)
        if "apps.record" in spec.timed:
            return events
        return events * len(PRESETS) * spec.loops

    def samples(self) -> dict[str, list[float]]:
        """Per unit: the timed seconds as the clock read them, how much
        slower than the reference the host was around the unit, and the
        quotient; per child: the quotient for its start-up."""
        out: dict[str, list[float]] = {
            key: [] for key in ("raw", "slowdown", "wall", "setup")}
        for child in self.plain:
            cal = [c / CALIBRATION_REFERENCE_S for c in child["calibration"]]
            out["setup"].append(child["setup_s"] / cal[0])
            for unit, seconds in enumerate(unit_walls(child)):
                slowdown = (cal[unit] + cal[unit + 1]) / 2
                out["raw"].append(seconds)
                out["slowdown"].append(slowdown)
                out["wall"].append(seconds / slowdown)
        return out

    def end_to_end(self) -> dict[str, dict[str, Any]]:
        if not self.plain:
            return {}
        got = self.samples()
        return {
            "wall_norm": stat("s", got["wall"]),
            "events_per_s_norm": stat(
                "1/s", [self.handled / w for w in got["wall"]]),
            # Normalised as well; BENCHMARK.json fixes its name.
            "setup_s": stat("s", got["setup"]),
            "peak_rss_mb": stat(
                "MB", [c["peak_rss_mb"] for c in self.plain]),
        }

    def host(self) -> dict[str, dict[str, Any]]:
        """What the normalised metrics were made from: the clock's own
        reading of the fastest unit and of the median start-up, and the
        typical slowdown."""
        if not self.plain:
            return {}
        got = self.samples()
        return {
            "host.wall_s": {"value": min(got["raw"]), "unit": "s"},
            "host.setup_s": {
                "value": statistics.median(
                    c["setup_s"] for c in self.plain), "unit": "s"},
            "host.slowdown": {
                "value": statistics.median(got["slowdown"]), "unit": "ratio"},
        }

    def per_layer(self) -> dict[str, dict[str, Any]]:
        if not (self.plain and self.traced):
            return {}
        events = self.reference["events"]
        # A stage's seconds: the least over every unit that ran it with
        # the profiler off (the traced child's extra stages included).
        unprofiled: dict[tuple[str, int, int], float] = {}
        for index, child in enumerate((*self.plain, self.traced)):
            for span in child["spans"]:
                if not span["profiled"]:
                    key = (span["name"], index, span["unit"])
                    unprofiled[key] = (unprofiled.get(key, 0.0)
                                       + span["end"] - span["start"])
        out: dict[str, dict[str, Any]] = {}
        for (name, _, _), seconds in unprofiled.items():
            best = out.setdefault(f"{name}_s", {"value": seconds, "unit": "s"})
            best["value"] = min(best["value"], seconds)
        profile = self.traced["profile"]
        # The machine's build and run are seen only by the profiler,
        # which inflates them; their share of the profiled record stage
        # is applied to the unprofiled one, so the layers nest.
        recorded = sum(span["end"] - span["start"]
                       for span in self.traced["spans"]
                       if span["name"] == "apps.record")
        for name, seconds in profile["cumulative_s"].items():
            out[name] = {"value": (out["apps.record_s"]["value"]
                                   * seconds / recorded), "unit": "s"}
        replays = events * len(PRESETS) * SPECS[self.name].loops
        out["mlsim.us_per_event"] = {
            "value": 1e6 * out["mlsim.replay_s"]["value"] / replays,
            "unit": "us"}
        out["check.us_per_event"] = {
            "value": 1e6 * out["check.check_s"]["value"] / events,
            "unit": "us"}
        out["trace.save_bytes"] = {
            "value": self.traced["facts"][0]["save_bytes"], "unit": "bytes"}

        total = sum(profile["self_s"].values())
        for layer in (*LAYERS, "numpy_builtin", "other"):
            out[f"{layer}.self_share"] = {
                "value": profile["self_s"][layer] / total, "unit": "share"}
            out[f"{layer}.calls"] = {
                "value": profile["calls"][layer] / TRACED_UNITS,
                "unit": "count"}
        for name, count in profile["counts"].items():
            out[name] = {"value": count / TRACED_UNITS, "unit": "count"}
        # Calls of C functions vary by a fraction of a percent from run
        # to run (set order follows addresses); calls into repro do not.
        out["profile.repro_calls_per_event"] = {
            "value": (sum(profile["calls"][layer] for layer in LAYERS)
                      / TRACED_UNITS / self.handled),
            "unit": "count"}
        out.update(self.host())
        out["profile.overhead_ratio"] = {
            "value": (min(unit_walls(self.traced))
                      / out["host.wall_s"]["value"]),
            "unit": "ratio"}

        sim = self.reference["elapsed_us"]
        out["mlsim.elapsed_us_ap1000"] = {
            "value": sim["ap1000"], "unit": "sim_us"}
        out["mlsim.elapsed_us_ap1000plus"] = {
            "value": sim["ap1000+"], "unit": "sim_us"}
        out["mlsim.speedup_ap1000plus"] = {
            "value": sim["ap1000"] / sim["ap1000+"], "unit": "ratio"}

        if self.sharded:
            report = self.sharded["facts"][0]["shard_report"]
            sharded = sum(span["end"] - span["start"]
                          for span in self.sharded["spans"]
                          if span["name"] == "apps.record")
            out["machine.shard_wall_s"] = {
                "value": report["wall_s"], "unit": "s"}
            out["machine.shard_worker_busy_max_s"] = {
                "value": max(report["worker_busy_s"]), "unit": "s"}
            out["machine.shard_replay_s"] = {
                "value": report["replay_s"], "unit": "s"}
            out["machine.shard_critical_path_s"] = {
                "value": report["critical_path_s"], "unit": "s"}
            out["machine.shard_wall_over_serial"] = {
                "value": sharded / out["apps.record_s"]["value"],
                "unit": "ratio"}
        return out

    def document(self, trace: bool) -> dict[str, Any]:
        children = [c for c in (*self.plain, self.traced, self.sharded) if c]
        first = children[0] if children else {}
        return {
            "end_to_end": self.end_to_end(),
            "host": self.host(),
            "per_layer": self.per_layer() if trace else None,
            "checks": {"attempted": self.attempted,
                       "failed": len(self.failures),
                       "failures": self.failures},
            "config": first.get("config"),
            "facts": self.reference,
            "dropped": (self.traced["profile"]["dropped"]
                        if self.traced else []),
            "children": [{key: c[key] for key in (
                "label", "setup_s", "total_s", "peak_rss_mb", "calibration")}
                for c in children],
            # The --trace dump: every stage span of every child.
            "spans": [dict(span, workload=self.name, child=c["label"])
                      for c in children for span in c["spans"]],
            "profile": self.traced["profile"] if self.traced else None,
            "code_version": first.get("code_version"),
            "numpy": first.get("numpy"),
            "thp_disabled": all(c["thp_disabled"] for c in children),
            "mmap_pinned": all(c["mmap_pinned"] for c in children),
        }


def measure(names: list[str], args: argparse.Namespace,
            work: Path) -> dict[str, Tally]:
    """Run the children of every named workload, one at a time."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    pinned = args.seed == 0 and not args.quick
    tallies = {
        name: Tally(name, args.seed, args.quick, work,
                    dict(expected.get(name, {})) if pinned else {})
        for name in names}
    units = 1 if args.quick else UNITS_PER_CHILD
    # With --trace most of the time belongs to the traced child; the
    # plain ones only anchor the overhead ratio.
    budget = args.seconds * (0.4 if args.trace else 1.0)
    began = time.perf_counter()
    active = list(tallies.values())
    while active:
        # Round-robin, so a slow minute on the host spreads over every
        # workload instead of landing on one.  A workload leaves when
        # its next child would end past the budget; the first child of
        # each always runs.
        for tally in list(active):
            tally.rep(units)
            if time.perf_counter() - began + tally.longest_s > budget:
                active.remove(tally)
    if args.trace:
        for tally in tallies.values():
            tally.trace()
            # Not in a single-workload run: that reports the metrics of
            # BENCHMARK.json, which must exist on every workload.
            if tally.name == SHARD_PROBE and not args.workload:
                tally.probe_sharded()
    return tallies


def provenance(docs: dict[str, dict[str, Any]]) -> dict[str, Any]:
    thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    first = next(iter(docs.values()))
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "code_version": first["code_version"],
        "thp_host": thp.read_text().strip() if thp.exists() else None,
        "thp_disabled_in_children": all(
            d["thp_disabled"] for d in docs.values()),
        "mmap_threshold_pinned_in_children": all(
            d["mmap_pinned"] for d in docs.values()),
        "loadavg": os.getloadavg(),
        "python_hash_seed": "0",
        "blas_threads": "1",
    }


def report(docs: dict[str, dict[str, Any]]) -> None:
    for name, doc in docs.items():
        checks = doc["checks"]
        print(f"== {name}  {doc['config']}")
        for metric, m in doc["end_to_end"].items():
            print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']:6s}"
                  f" min {m['min']:.6g}  max {m['max']:.6g}  n {m['n']}")
        print(f"  {'failed_share':34s} "
              f"{checks['failed'] / checks['attempted']:>14.6g} "
              f"       {checks['failed']} of {checks['attempted']} checks")
        for metric, m in (doc["per_layer"] or doc["host"]).items():
            print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}")
        for failure in checks["failures"]:
            print(f"  FAILED {failure}")


def compare(path_a: str, path_b: str) -> int:
    """B against A by the contract's bounds; 1 when any is exceeded."""
    contract = json.loads(CONTRACT.read_text())
    a, b = (json.loads(Path(p).read_text())["workloads"]
            for p in (path_a, path_b))
    exceeded = 0
    for name in sorted(set(a) & set(b)):
        for metric in contract["end_to_end"]:
            key = metric["name"]
            old = a[name]["end_to_end"].get(key, {}).get("value")
            new = b[name]["end_to_end"].get(key, {}).get("value")
            if not old or new is None:      # nothing to take a share of
                print(f"{name:14s} {key:18s} missing or 0")
                exceeded += 1
                continue
            change = (new - old) / old
            worse = change if metric["better"] == "lower" else -change
            over = worse > metric["bound"]
            exceeded += over
            print(f"{name:14s} {key:18s} {old:12.6g} -> {new:12.6g} "
                  f"{metric['unit']:5s} {change:+8.1%}  bound "
                  f"{metric['bound']:.0%}  {'EXCEEDED' if over else 'ok'}")
        failed = b[name]["checks"]["failed"]
        if failed:
            print(f"{name:14s} {failed} failed checks in {path_b}")
            exceeded += 1
    return 1 if exceeded else 0


def repin(work: Path) -> int:
    """Pin seed 0: one cold child per workload."""
    pins = {}
    for name in SPECS:
        child = spawn(name, 0, work, "--units", "1", quick=False)
        if not (child["ok"] and child["facts"][0]["verified"]):
            print(f"{name}: not pinned: {child.get('error', 'unverified')}",
                  file=sys.stderr)
            return 1
        pins[name] = {key: child["facts"][0][key] for key in FACT_KEYS}
    EXPECTED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="time budget of the untraced children, all "
                             "workloads together (default: run_seconds of "
                             "BENCHMARK.json per workload)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one child per workload at small sizes: a "
                             "smoke test, not a measurement")
    parser.add_argument("--out", type=Path, help="result JSON to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}/src/repro is missing: nothing to benchmark",
              file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    contract = json.loads(CONTRACT.read_text())
    names = ([args.workload] if args.workload
             else [w["name"] for w in contract["workloads"]])
    if args.quick:
        args.seconds = 0.0           # the first child of each, no more
    elif args.seconds is None:
        args.seconds = float(contract["run_seconds"] * len(names))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    try:
        if args.repin:
            return repin(work)
        tallies = measure(names, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    docs = {name: t.document(bool(args.trace)) for name, t in tallies.items()}
    report(docs)
    out = args.out or (None if args.workload else HERE / "out" / "result.json")
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "schema": SCHEMA, "seed": args.seed, "quick": args.quick,
            "provenance": provenance(docs), "workloads": docs,
        }, indent=1) + "\n")
        print(f"wrote {out}")
    if args.workload:
        doc = docs[args.workload]
        wanted = contract["per_layer" if args.trace else "end_to_end"]
        have = doc["per_layer" if args.trace else "end_to_end"] or {}
        # A metric that could not be measured reads 0 and the run is
        # marked incorrect; it is never left out.
        missing = [m["name"] for m in wanted if m["name"] not in have]
        failed = doc["checks"]["failed"] + len(missing)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": doc["checks"]["attempted"] + len(missing),
            "failed": failed,
            "metrics": {m["name"]: {
                "value": have.get(m["name"], {"value": 0.0})["value"],
                "unit": m["unit"]} for m in wanted},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
