"""Golden equivalence: checkpoint, crash, restore, byte-identical.

The tentpole contract of ``repro.ckpt``: a run that dies right after a
gate capture and resumes from the snapshot must finish with a trace,
per-cell results, and memory image byte-identical to the uninterrupted
run — per instrumented app, under both scheduler loops, and with an
active fault plan (whose RNG stream and link-layer retransmit state
ride inside the snapshot).

The golden run is the *armed* uninterrupted run: gate barriers are
observable in the trace, so both sides of every comparison run under
the identical checkpoint policy.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.ckpt import CheckpointPolicy, applied, resume_workload
from repro.core.errors import CheckpointInterrupt
from repro.faults import FaultPlan
from repro.faults import applied as faults_applied
from repro.faults.chaos import (
    memory_digest,
    results_digest,
    trace_digest,
)
from repro.machine.machine import Machine

from .conftest import run_small

#: Every instrumented app crosses at least two gates at smoke sizes.
SITE = 2

PLAN = FaultPlan(name="storm", seed=77, drop_rate=0.05, dup_rate=0.05,
                 corrupt_rate=0.05, delay_rate=0.1)

#: (app, plan, loop).  ``Machine.run`` picks the resume-counting
#: ("reference") loop exactly when a plan is active; the plan-free
#: "reference" rows keep that loop's gate handling pinned without
#: fault noise by substituting it for ``Machine._run_batched``.
CASES = [
    ("MatMul", None, "batched"),
    ("MatMul", None, "reference"),
    ("MatMul", PLAN, "reference"),
    ("CG", None, "batched"),
    ("CG", None, "reference"),
    ("CG", PLAN, "reference"),
    ("RingShift", None, "batched"),
    ("RingShift", None, "reference"),
    ("RingShift", PLAN, "reference"),
]


def _ambient(plan):
    return faults_applied(plan) if plan is not None else (
        contextlib.nullcontext())


@pytest.mark.parametrize(
    ("app", "plan", "scheduler"), CASES,
    ids=[f"{a}-{p.name if p else 'none'}-{s}" for a, p, s in CASES])
def test_crash_at_gate_resumes_byte_identical(
        app, plan, scheduler, tmp_path, monkeypatch):
    if plan is None and scheduler == "reference":
        monkeypatch.setattr(Machine, "_run_batched",
                            Machine._run_reference)

    with _ambient(plan), applied(CheckpointPolicy(at_site=SITE)):
        golden = run_small(app)
    assert golden.machine.ckpt_seq == 1  # one-shot gate fired once
    want_trace = trace_digest(golden.machine.trace)
    want_results = results_digest(golden.results)
    want_memory = memory_digest(golden.machine)

    # The crash run dies by CheckpointInterrupt the moment the site-2
    # snapshot hits disk — the moral equivalent of kill -9 right after
    # a capture, minus the subprocess (tests/test_cli.py has that one).
    with _ambient(plan), applied(CheckpointPolicy(
            at_site=SITE, directory=str(tmp_path),
            stop_after_capture=True)):
        with pytest.raises(CheckpointInterrupt) as excinfo:
            run_small(app)
    snapshot = excinfo.value.snapshot_path
    assert snapshot is not None

    # No ambient state: the snapshot's config carries the fault plan,
    # and with it the loop the crash run used.
    resumed = resume_workload(snapshot)
    assert resumed.machine.engine["loop"] == (
        "wake-set" if plan is None else "resume-counting")

    assert resumed.verified
    assert resumed.machine.ckpt_seq == golden.machine.ckpt_seq
    assert trace_digest(resumed.machine.trace) == want_trace
    assert results_digest(resumed.results) == want_results
    assert memory_digest(resumed.machine) == want_memory
    # The hardware too: TLBs, cache tags, registers, queue and DMA
    # counters, rings — whatever the parts say their state is.
    for ours, theirs in ((resumed.machine.hw_cells, golden.machine.hw_cells),
                         (resumed.machine.rings, golden.machine.rings)):
        assert [p.state() for p in ours] == [p.state() for p in theirs]
