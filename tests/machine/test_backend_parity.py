"""One cell-program interface, the same events wherever it runs.

:class:`~repro.machine.program.CellContext` is the only front end; the
functional machine and a sharded worker differ below a narrow seam, and
the static analyzer runs its programs on the functional machine itself.
Generated SPMD programs over the whole public vocabulary
(``tests/programs.py``) must therefore record the same events on each
and leave the same bytes in memory, and a structural guard keeps a
back end from re-stating a front-end method.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.comm import UNTIMED_KINDS, analyze_program
from repro.core.completion import AckPolicy
from repro.faults.chaos import memory_digest, trace_digest
from repro.machine import sharded
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.program import CellContext
from tests.programs import (
    EVERY_OP,
    MEMORY,
    programs,
    round_program,
)


def run_serial(cells, steps, policy=AckPolicy.EVERY_PUT):
    machine = Machine(MachineConfig(
        num_cells=cells, memory_per_cell=MEMORY, sanitize=True,
        shards=1), ack_policy=policy)
    return machine, machine.run(round_program, steps=steps)


@settings(max_examples=40, deadline=None)
@given(cells=st.sampled_from([4, 5]), steps=programs)
@example(cells=5, steps=EVERY_OP)
def test_the_analyzers_run_is_a_production_run(cells, steps):
    serial, results = run_serial(cells, steps)
    run = analyze_program(round_program, cells, {"steps": steps},
                          memory_per_cell=MEMORY)
    assert not run.deadlocked
    assert run.results == dict(enumerate(results))
    assert trace_digest(run.trace) == trace_digest(serial.trace)
    assert memory_digest(run.machine) == memory_digest(serial)
    # Every communication row, and no other, has a call site: the
    # program's own line, whichever spelling of the interface it used.
    columns = run.trace.seq_columns()
    assert set(run.sites) == {
        seq for seq, kind in zip(columns["seq"], columns["kind"])
        if kind not in UNTIMED_KINDS}
    assert {file for file, _ in run.sites.values()} == {"programs.py"}


@pytest.mark.skipif(not sharded.sharded_supported(),
                    reason="platform lacks the fork start method")
@settings(max_examples=20, deadline=None)
@given(cells=st.sampled_from([4, 5]), steps=programs,
       policy=st.sampled_from(AckPolicy.ALL))
@example(cells=5, steps=EVERY_OP, policy=AckPolicy.EVERY_PUT)
@example(cells=4, steps=EVERY_OP, policy=AckPolicy.LAST_PER_DEST)
def test_sharded_engine_matches_the_functional_one(cells, steps, policy):
    # The functional machine issues a batch as one, a worker command by
    # command: the generated batch ops compare the two as well.
    serial, results = run_serial(cells, steps, policy)
    shard = Machine(MachineConfig(
        num_cells=cells, memory_per_cell=MEMORY, sanitize=True,
        shards=2), ack_policy=policy)
    assert shard.run(round_program, steps=steps) == results
    assert shard.shard_report["shards"] == 2
    assert trace_digest(shard.trace) == trace_digest(serial.trace)
    assert memory_digest(shard) == memory_digest(serial)


# ----------------------------------------------------------------------
# Structural guard: the front end is stated once
# ----------------------------------------------------------------------

def overridden(cls):
    """Names a back end defines that :class:`CellContext` also defines."""
    return {name for name in vars(cls)
            if not name.startswith("__") and hasattr(CellContext, name)}


def test_back_ends_override_only_the_seam():
    """Adding an op to ``CellContext`` reaches every back end by
    inheritance; re-stating a front-end method in one fails here by
    name."""
    assert issubclass(sharded._ShardCellContext, CellContext)
    # A worker: shard logic below the seam; above it the wildcard
    # RECEIVE refusal and the two ops whose oplog item no event carries.
    assert overridden(sharded._ShardCellContext) == {
        "_issue", "_post", "_creg_store", "_creg_try_load",
        "recv", "flag_clear", "make_group"}
    # The row seam is an attribute each context binds: the trace's own
    # ``append`` on the functional machine, a back end's recorder else.
    machine = Machine(MachineConfig(num_cells=2, memory_per_cell=MEMORY))
    assert CellContext(machine, 0)._record == machine.trace.append
