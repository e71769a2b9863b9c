"""Golden equivalence: checkpoint, crash, restore, byte-identical.

The tentpole contract of ``repro.ckpt``: a run that dies right after a
gate capture and resumes from the snapshot must finish with a trace,
per-cell results, and memory image byte-identical to the uninterrupted
run — per instrumented app, under the wake-set loop and its oracle
(``tests/machine/reference_loop.py``), and with an active fault plan
(whose RNG stream and link-layer retransmit state ride inside the
snapshot).  RingShift, whose site is a lap of the token, is also killed
at laps that only some cells hold a hop of; a plan's kill after the
gate dies at the same row in the resumed run.

The golden run is the *armed* uninterrupted run: gate barriers are
observable in the trace, so both sides of every comparison run under
the identical checkpoint policy.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.apps.workloads import workload
from repro.ckpt.policy import CheckpointPolicy, applied
from repro.ckpt.snapshot import restore_machine, resume_workload
from repro.core.errors import CheckpointInterrupt
from repro.faults.chaos import (
    memory_digest,
    results_digest,
    trace_digest,
)
from repro.faults.plan import FaultPlan, KillSpec
from repro.faults.plan import applied as faults_applied
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine

from ..machine.reference_loop import run_reference
from .conftest import captured_sites, run_small

#: Every instrumented app crosses at least two gates at smoke sizes.
SITE = 2

PLAN = FaultPlan(name="storm", seed=77, drop_rate=0.05, dup_rate=0.05,
                 corrupt_rate=0.05, delay_rate=0.1)

#: (app, plan, loop).  ``Machine.run`` always takes the wake-set
#: ("batched") loop; the "reference" rows substitute the oracle for
#: ``Machine._run_batched``, so its gate handling stays pinned too.
CASES = [(app, plan, loop) for app in ("MatMul", "CG", "RingShift")
         for plan in (None, PLAN) for loop in ("batched", "reference")]


def _ambient(plan):
    return faults_applied(plan) if plan is not None else (
        contextlib.nullcontext())


def crash_and_resume(run, arm, plan, scheduler, tmp_path, monkeypatch):
    """``run()`` three times under the gate ``arm`` (``CheckpointPolicy``
    fields): straight through, killed at its first capture, resumed from
    that snapshot.  Asserts the resumed run equals the straight one and
    returns the straight one, its snapshots in ``tmp_path / "golden"``."""
    if scheduler == "reference":
        monkeypatch.setattr(Machine, "_run_batched", run_reference)

    with _ambient(plan), applied(CheckpointPolicy(
            **arm, directory=str(tmp_path / "golden"))):
        golden = run()
    want_trace = trace_digest(golden.machine.trace)
    want_results = results_digest(golden.results)
    want_memory = memory_digest(golden.machine)

    # The crash run dies by CheckpointInterrupt the moment its first
    # snapshot hits disk — the moral equivalent of kill -9 right after
    # a capture, minus the subprocess (tests/test_cli.py has that one).
    with _ambient(plan), applied(CheckpointPolicy(
            **arm, directory=str(tmp_path / "crash"),
            stop_after_capture=True)):
        with pytest.raises(CheckpointInterrupt) as excinfo:
            run()
    snapshot = excinfo.value.snapshot_path
    assert snapshot is not None

    # No ambient state: the snapshot's config carries the fault plan.
    resumed = resume_workload(snapshot)
    assert resumed.machine.engine["loop"] == "wake-set"

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
    return golden


@pytest.mark.parametrize(
    ("app", "plan", "scheduler"), CASES,
    ids=[f"{a}-{p.name if p else 'none'}-{s}" for a, p, s in CASES])
def test_crash_at_gate_resumes_byte_identical(
        app, plan, scheduler, tmp_path, monkeypatch):
    golden = crash_and_resume(lambda: run_small(app), {"at_site": SITE},
                              plan, scheduler, tmp_path, monkeypatch)
    assert golden.machine.ckpt_seq == 1  # one-shot gate fired once


#: RingShift (cells, hops) whose last lap only some cells hold a hop
#: of: ``hops % cells != 0``, twice with ``hops < cells``.
RING_SIZES = [(4, 9), (4, 3), (8, 5)]


@pytest.mark.parametrize(("plan", "scheduler"), [
    (None, "batched"), (None, "reference"), (PLAN, "batched"),
    (PLAN, "reference")],
    ids=["none-batched", "none-reference", "storm-batched",
         "storm-reference"])
@pytest.mark.parametrize("every_lap", [True, False],
                         ids=["every-lap", "last-lap"])
@pytest.mark.parametrize(("cells", "hops"), RING_SIZES)
def test_ring_shift_site_is_a_lap(
        cells, hops, every_lap, plan, scheduler, tmp_path, monkeypatch):
    laps = -(-hops // cells)
    golden = crash_and_resume(
        lambda: workload("RingShift").run(num_cells=cells, hops=hops),
        {"every": 1} if every_lap else {"at_site": laps},
        plan, scheduler, tmp_path, monkeypatch)
    # Every cell is at the same site with the same lap in its bag,
    # whether or not the token reached it on that lap.
    assert captured_sites(golden.machine, tmp_path / "golden", "lap") == [
        (lap, [lap] * cells)
        for lap in (range(1, laps + 1) if every_lap else [laps])]


def laps_program(ctx, laps):
    """A checkpointable loop of compute, gop and a gate barrier: three
    rows a lap on every cell."""
    st = ctx.ckpt_state(lap=0, total=0.0)
    while st.lap < laps:
        ctx.compute(1.0)
        st.total = yield from ctx.gop(st.total + ctx.pe, "sum")
        st.lap += 1
        yield from ctx.checkpoint(barrier=True)
    return st.total


@pytest.mark.parametrize("scheduler", ["batched", "reference"])
def test_kill_after_the_gate_resumes_byte_identical(
        scheduler, tmp_path, monkeypatch):
    """Cell 2 dies in place of its fifth row, the gop of lap 1, after
    the gate at the end of lap 0: the resumed run carries the rows it
    recorded before the capture and kills it at the same row."""
    if scheduler == "reference":
        monkeypatch.setattr(Machine, "_run_batched", run_reference)
    plan = FaultPlan(name="kill", seed=3, degrade=True,
                     kills=(KillSpec(pe=2, at_event=4),))
    config = MachineConfig(num_cells=4, fault_plan=plan,
                           memory_per_cell=1 << 21)

    def digests(machine, results):
        return (sorted(machine.killed), trace_digest(machine.trace),
                results_digest(results), memory_digest(machine))

    with applied(CheckpointPolicy(at_site=1)):
        straight = Machine(config)
        want = digests(straight, straight.run(laps_program, laps=3))
    assert want[0] == [2]
    with applied(CheckpointPolicy(at_site=1, directory=str(tmp_path),
                                  stop_after_capture=True)):
        with pytest.raises(CheckpointInterrupt) as excinfo:
            Machine(config).run(laps_program, laps=3)
    resumed = restore_machine(excinfo.value.snapshot_path)
    assert digests(resumed, resumed.run(laps_program, laps=3)) == want
