"""Chaos harness: sweep fault plans over the shipped applications.

The property under test is end-to-end: *a run under any seeded fault
plan is indistinguishable from the fault-free run* — bit-identical
per-cell results and memory image, functional verification passing, and
a clean :mod:`repro.check` report over the (sanitized) trace — except
for the robustness counters that say how hard the fabric had to work.

Every application is first run on a perfect machine to capture golden
digests; each plan then re-runs it with ``MachineConfig(fault_plan=plan)``
and the digests must match.  Failures are collected, not raised, so one sweep
reports every broken (app, plan) pair; an unexpected error (for example
a CommTimeoutError from an exhausted retry budget) marks its case
failed with the message attached.

The checker and checkpoint capture load only when a case asks for them.
"""

from __future__ import annotations

import hashlib
import tempfile
from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from repro.apps.workloads import ORDER, workload
from repro.core.errors import CheckpointInterrupt, ReproError
from repro.faults.plan import FaultPlan, full_plans, smoke_plans
from repro.machine.config import MachineConfig
from repro.trace.buffer import (
    EVENT_FIELDS,
    RANGE_FIELDS,
    UNANNOTATED,
    TraceBuffer,
)

if TYPE_CHECKING:
    from repro.faults.injector import FaultyTNet

#: Apps exercised by ``repro chaos --smoke`` (one VPP Fortran app with
#: flag-synchronized PUTs, one C app with GET traffic — small but they
#: cover both one-sided directions).
SMOKE_APPS = ("EP", "MatMul")

#: Scaled-down problem sizes for ``repro chaos --recover --smoke``:
#: same communication patterns, CI-sized runs (each recover case runs
#: its app three times — golden, killed, resumed).
SMOKE_RECOVER_PARAMS: dict[str, dict[str, Any]] = {
    "MatMul": {"num_cells": 4, "n": 16},
    "CG": {"num_cells": 4, "n": 32, "outer": 3, "inner": 3},
    "RingShift": {"num_cells": 4, "hops": 9},
}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

def results_digest(results: Any) -> str:
    """Deterministic digest of per-cell return values (numpy-aware)."""
    h = hashlib.sha256()
    _hash_value(h, results)
    return h.hexdigest()


def _hash_value(h, value: Any) -> None:
    if isinstance(value, np.ndarray):
        h.update(b"nd:")
        h.update(str(value.dtype).encode())
        h.update(str(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(b"seq:%d:" % len(value))
        for item in value:
            _hash_value(h, item)
    elif isinstance(value, dict):
        h.update(b"map:%d:" % len(value))
        for key in sorted(value, key=repr):
            h.update(repr(key).encode())
            _hash_value(h, value[key])
    else:
        h.update(repr(value).encode())


def memory_digest(machine) -> str:
    """Digest of every cell's *used* memory: the flag area plus the
    symmetric heap (bottom-up) and the private area (top-down).  The
    untouched middle is skipped — it is zero on both machines anyway and
    cells may carry hundreds of megabytes of it."""
    h = hashlib.sha256()
    top = machine.config.memory_per_cell
    for pe in range(machine.config.num_cells):
        memory = machine.hw_cells[pe].memory
        heap_end = machine._heap_next[pe]
        private_start = machine._private_next[pe]
        h.update(b"pe:%d:" % pe)
        h.update(memory.read(0, heap_end))
        if private_start < top:
            h.update(memory.read(private_start, top - private_start))
    return h.hexdigest()


def trace_digest(trace: TraceBuffer) -> str:
    """Digest of a trace, invariant to process-global packet serials.

    ``msg_id`` carries raw packet serial numbers from a process-wide
    counter, so two identical runs in one process get different raw ids;
    they are renumbered densely in order of first appearance before
    hashing.  Two runs with the same fault schedule must digest equal.
    Reads the buffer's columns in ``seq`` order: a recorded buffer's
    rows as they are (no block is packed for the digest), a loaded
    one's block."""
    columns = trace.seq_columns()
    footprints = (zip(*(columns[name] for name in RANGE_FIELDS))
                  if RANGE_FIELDS[0] in columns else repeat(UNANNOTATED))
    remap: dict[int, int] = {0: 0}
    h = hashlib.sha256()
    for (kind, pe, seq, partner, size, stride, send_flag, recv_flag, is_ack,
         msg_id, flag, target, group, group_size, work), footprint in zip(
            zip(*(columns[name] for name in EVENT_FIELDS)), footprints):
        if msg_id not in remap:
            remap[msg_id] = len(remap)
        record = (
            int(kind), pe, seq, partner, size, int(stride), send_flag,
            recv_flag, int(is_ack), remap[msg_id], flag, target, group,
            group_size, round(work, 9),
        ) + footprint
        h.update(repr(record).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------

@dataclass
class ChaosCase:
    """One (application, fault plan) cell of the sweep."""

    app: str
    plan: str
    seed: int
    ok: bool
    results_match: bool = False
    memory_match: bool = False
    verified: bool = False
    check_clean: bool | None = None
    counters: dict[str, int] = field(default_factory=dict)
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app, "plan": self.plan, "seed": self.seed,
            "ok": self.ok, "results_match": self.results_match,
            "memory_match": self.memory_match, "verified": self.verified,
            "check_clean": self.check_clean,
            "counters": dict(self.counters), "error": self.error,
        }

    def describe(self) -> str:
        if self.ok:
            c = self.counters
            weather = (f"{c.get('dropped', 0)} dropped, "
                       f"{c.get('duplicated', 0)} dup, "
                       f"{c.get('corrupted', 0)} corrupt, "
                       f"{c.get('delayed', 0)} delayed, "
                       f"{c.get('retries', 0)} retries")
            return f"ok   {self.app:<9} {self.plan:<8} ({weather})"
        if self.error is not None:
            return f"FAIL {self.app:<9} {self.plan:<8} {self.error}"
        what = [
            name for name, good in (
                ("results", self.results_match),
                ("memory", self.memory_match),
                ("verify", self.verified),
                ("check", self.check_clean is not False),
            ) if not good
        ]
        return (f"FAIL {self.app:<9} {self.plan:<8} "
                f"mismatch: {', '.join(what)}")


@dataclass
class ChaosReport:
    """Every case of one sweep."""

    cases: list[ChaosCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.cases) and all(case.ok for case in self.cases)

    @property
    def diverged(self) -> bool:
        """True when some run *completed* but its digests differ from
        the golden run's — the serious failure mode (an error case is a
        crash, a divergence is silent corruption)."""
        return any(not case.ok and case.error is None
                   for case in self.cases)

    def summary(self) -> str:
        failed = sum(1 for case in self.cases if not case.ok)
        verdict = "all survived" if failed == 0 else f"{failed} FAILED"
        return (f"chaos: {len(self.cases)} fault runs over "
                f"{len({c.app for c in self.cases})} app(s): {verdict}")

    def to_dict(self) -> dict[str, Any]:
        return {"ok": self.ok, "diverged": self.diverged,
                "summary": self.summary(),
                "cases": [case.to_dict() for case in self.cases]}


def run_under_plan(app: str, plan: FaultPlan | None, *,
                   cells: int | None = None, annotate: bool = False):
    """Run one workload under ``plan`` (None = perfect machine)."""
    return workload(app).run(num_cells=cells, config=MachineConfig(
        fault_plan=plan, sanitize=annotate))


def chaos_sweep(apps: Iterable[str] | None = None,
                plans: Iterable[FaultPlan] | None = None, *,
                cells: int | None = None, check: bool = True,
                log: Callable[[str], None] | None = None) -> ChaosReport:
    """Run ``apps`` x ``plans`` and compare every faulted run against
    its app's fault-free golden run."""
    app_names = tuple(apps) if apps else ORDER
    plan_list = tuple(plans) if plans else full_plans()
    report = ChaosReport()
    for app in app_names:
        if log is not None:
            log(f"golden run: {app}")
        golden = run_under_plan(app, None, cells=cells)
        want_results = results_digest(golden.results)
        want_memory = memory_digest(golden.machine)
        for plan in plan_list:
            case = _run_case(app, plan, want_results, want_memory,
                             cells=cells, check=check)
            if log is not None:
                log(case.describe())
            report.cases.append(case)
    return report


def _run_case(app: str, plan: FaultPlan, want_results: str,
              want_memory: str, *, cells: int | None,
              check: bool) -> ChaosCase:
    from repro.check.runner import check_trace

    case = ChaosCase(app=app, plan=plan.name, seed=plan.seed, ok=False)
    try:
        run = run_under_plan(app, plan, cells=cells, annotate=check)
    except ReproError as exc:
        case.error = f"{type(exc).__name__}: {exc}".splitlines()[0]
        return case
    if run.machine.fault_plan is not None:     # so its wire is faulty
        tnet = cast("FaultyTNet", run.machine.tnet)
        case.counters = tnet.stats.state()
    case.results_match = results_digest(run.results) == want_results
    case.memory_match = memory_digest(run.machine) == want_memory
    case.verified = bool(run.verified)
    if check:
        case.check_clean = check_trace(
            run.trace, f"{app}@{plan.name}").clean
    case.ok = (case.results_match and case.memory_match and case.verified
               and case.check_clean is not False)
    return case


# ----------------------------------------------------------------------
# Kill-and-resume sweep (repro chaos --recover)
# ----------------------------------------------------------------------

@dataclass
class RecoverCase:
    """One (application, fault plan) kill-and-resume round trip."""

    app: str
    plan: str  # plan name, or "none" for the fault-free machine
    seed: int
    site: int  # checkpoint site the kill happens at
    ok: bool
    captures: int = 0
    results_match: bool = False
    memory_match: bool = False
    trace_match: bool = False
    verified: bool = False
    snapshot: str | None = None
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app, "plan": self.plan, "seed": self.seed,
            "site": self.site, "ok": self.ok, "captures": self.captures,
            "results_match": self.results_match,
            "memory_match": self.memory_match,
            "trace_match": self.trace_match, "verified": self.verified,
            "snapshot": self.snapshot, "error": self.error,
        }

    def describe(self) -> str:
        if self.ok:
            return (f"ok   {self.app:<9} {self.plan:<8} killed at "
                    f"site {self.site}, resumed byte-identical")
        if self.error is not None:
            return f"FAIL {self.app:<9} {self.plan:<8} {self.error}"
        what = [
            name for name, good in (
                ("trace", self.trace_match),
                ("results", self.results_match),
                ("memory", self.memory_match),
                ("verify", self.verified),
            ) if not good
        ]
        return (f"FAIL {self.app:<9} {self.plan:<8} resumed run "
                f"diverged: {', '.join(what)}")


@dataclass
class RecoverReport:
    """Every case of one kill-and-resume sweep."""

    cases: list[RecoverCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.cases) and all(case.ok for case in self.cases)

    @property
    def diverged(self) -> bool:
        """A resumed run completed but did not reproduce the golden
        digests (versus an error case, where something crashed)."""
        return any(not case.ok and case.error is None
                   for case in self.cases)

    def summary(self) -> str:
        failed = sum(1 for case in self.cases if not case.ok)
        verdict = ("all resumed byte-identical" if failed == 0
                   else f"{failed} FAILED")
        return (f"recover: {len(self.cases)} kill-and-resume runs over "
                f"{len({c.app for c in self.cases})} app(s): {verdict}")

    def to_dict(self) -> dict[str, Any]:
        return {"ok": self.ok, "diverged": self.diverged,
                "summary": self.summary(),
                "cases": [case.to_dict() for case in self.cases]}


def recover_sweep(apps: Iterable[str] | None = None,
                  plans: Iterable[FaultPlan] | None = None, *,
                  seed: int = 1994, cells: int | None = None,
                  smoke: bool = False,
                  snapshot_root: str | Path | None = None,
                  log: Callable[[str], None] | None = None,
                  ) -> RecoverReport:
    """Kill-and-resume every (app, plan) pair and demand byte equality.

    Each case runs its application three times: a golden run with the
    checkpoint gate armed at a seed-chosen site; a crash run that dies
    (``stop_after_checkpoint``) right after saving that site's snapshot;
    and a resumed run completing from the snapshot.  The resumed run
    must be byte-identical to the golden one — trace, per-cell results,
    and memory image — including under every fault plan.

    ``smoke`` shrinks the problem sizes for CI.  ``snapshot_root``
    keeps each case's snapshot on disk (for artifact upload on
    failure); by default they live in temp directories.
    """
    from repro.ckpt.snapshot import CKPT_APPS

    app_names = tuple(apps) if apps else CKPT_APPS
    if plans is None:
        plan_iter = smoke_plans(seed) if smoke else full_plans(seed)
    else:
        plan_iter = tuple(plans)
    report = RecoverReport()
    for app in app_names:
        for plan in (None, *plan_iter):
            case = _recover_case(app, plan, seed, cells=cells,
                                 smoke=smoke,
                                 snapshot_root=snapshot_root)
            if log is not None:
                log(case.describe())
            report.cases.append(case)
    return report


def _recover_case(app: str, plan: FaultPlan | None, base_seed: int, *,
                  cells: int | None, smoke: bool,
                  snapshot_root: str | Path | None) -> RecoverCase:
    from repro.ckpt.snapshot import resume_workload

    plan_seed = plan.seed if plan is not None else base_seed
    plan_name = plan.name if plan is not None else "none"
    site = 1 + plan_seed % 3
    case = RecoverCase(app=app, plan=plan_name, seed=plan_seed,
                       site=site, ok=False)
    params = dict(SMOKE_RECOVER_PARAMS.get(app, {})) if smoke else {}
    run_cells = params.pop("num_cells", None)
    if cells is not None:
        run_cells = cells

    def _run(**crash):
        return workload(app).run(num_cells=run_cells, config=MachineConfig(
            fault_plan=plan, checkpoint_at_site=site, **crash), **params)

    try:
        golden = _run()
        captures = golden.machine.ckpt_seq
        if captures == 0:
            case.error = (f"checkpoint site {site} never reached; the "
                          "golden run captured nothing")
            return case
        want_trace = trace_digest(golden.machine.trace)
        want_results = results_digest(golden.results)
        want_memory = memory_digest(golden.machine)
        if snapshot_root is not None:
            snap_dir = Path(snapshot_root) / f"{app}-{plan_name}"
            snap_dir.mkdir(parents=True, exist_ok=True)
            holder = nullcontext(str(snap_dir))
        else:
            holder = tempfile.TemporaryDirectory(prefix="repro-recover-")
        with holder as snap:
            try:
                _run(checkpoint_dir=str(snap), stop_after_checkpoint=True)
            except CheckpointInterrupt as exc:
                snapshot_path = exc.snapshot_path
            else:
                case.error = (f"crash run finished uninterrupted; no "
                              f"capture happened at site {site}")
                return case
            if snapshot_root is not None:
                case.snapshot = str(snapshot_path)
            # The snapshot's config carries the fault plan, so the
            # resume is given no config.
            resumed = resume_workload(snapshot_path)
        case.captures = resumed.machine.ckpt_seq
        case.trace_match = (
            trace_digest(resumed.machine.trace) == want_trace)
        case.results_match = results_digest(resumed.results) == want_results
        case.memory_match = memory_digest(resumed.machine) == want_memory
        case.verified = bool(resumed.verified)
        case.ok = (case.trace_match and case.results_match
                   and case.memory_match and case.verified
                   and case.captures == captures)
    except ReproError as exc:
        case.error = f"{type(exc).__name__}: {exc}".splitlines()[0]
    return case
