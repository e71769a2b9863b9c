"""The resume-counting scheduler: the wake-set loop's oracle.

``Machine.run`` resumes only cells a wake site names
(:func:`repro.machine.machine.run_wake_rounds`).  This loop resumes every
unfinished cell every pass, in ascending pe order, and calls a hang
after three passes in which nothing moved.  It is slow and obviously
right, so tests substitute it for ``Machine._run_batched``::

    monkeypatch.setattr(Machine, "_run_batched", run_reference)

and demand the same trace, results, memory and fault counters.  A
fault plan's kills fire inside the cell's own resume (the probe that
would record the doomed row raises), so both loops share them.
"""

from __future__ import annotations

from typing import Any

from repro.machine.machine import Machine, _Killed

#: Passes in a row with no progress before the loop calls a hang.
STALLED_PASSES = 3


def run_reference(machine: Machine, generators: dict[int, Any],
                  results: list[Any]) -> None:
    stalled = 0
    while generators:
        before = machine.progress
        for pe in sorted(generators):
            try:
                next(generators[pe])
            except StopIteration as stop:
                results[pe] = stop.value
                del generators[pe]
                machine._finished_cells.add(pe)
                machine.progress += 1
            except _Killed:
                machine.kill_cell(pe)
        if machine._ckpt_gate_ready():
            machine._capture_checkpoint()
            stalled = 0
        elif machine.progress != before:
            stalled = 0
        else:
            stalled += 1
            if stalled < STALLED_PASSES:
                continue
            if machine._gate_parked:
                # The gate can never fill (a finished cell, a killed
                # cohort): release the parked cells.
                machine._abort_checkpoint()
                stalled = 0
            else:
                machine._raise_hang(generators)
