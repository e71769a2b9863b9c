"""One cell-program interface, three back ends, the same events.

:class:`~repro.machine.program.CellContext` is the only front end; the
functional machine, the static analyzer's instant-delivery machine and a
sharded worker differ below a narrow seam.  Generated SPMD programs over
the whole public vocabulary (``tests/programs.py``) must
therefore record the same per-cell events on all three and leave the
same bytes in memory, and a structural guard keeps either back end from
re-stating a front-end method.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.comm import SymbolicContext, SymbolicMachine
from repro.faults.chaos import memory_digest, trace_digest
from repro.machine import sharded
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.program import CellContext
from tests.programs import (
    EVERY_OP,
    MEMORY,
    event_keys,
    programs,
    round_program,
)


def run_serial(cells, steps):
    machine = Machine(MachineConfig(
        num_cells=cells, memory_per_cell=MEMORY, sanitize=True,
        shards=1))
    return machine, machine.run(round_program, steps=steps)


@settings(max_examples=40, deadline=None)
@given(cells=st.sampled_from([4, 5]), steps=programs)
@example(cells=5, steps=EVERY_OP)
def test_symbolic_machine_matches_the_functional_one(cells, steps):
    serial, results = run_serial(cells, steps)
    symbolic = SymbolicMachine(cells, memory_per_cell=MEMORY)
    predicted = symbolic.run(round_program, steps=steps)
    assert not symbolic.deadlocked
    for pe in range(cells):
        assert event_keys(symbolic.trace, pe) == event_keys(serial.trace, pe)
    assert predicted == dict(enumerate(results))
    assert memory_digest(symbolic) == memory_digest(serial)


@pytest.mark.skipif(not sharded.sharded_supported(),
                    reason="platform lacks the fork start method")
@settings(max_examples=20, deadline=None)
@given(cells=st.sampled_from([4, 5]), steps=programs)
@example(cells=5, steps=EVERY_OP)
def test_sharded_engine_matches_the_functional_one(cells, steps):
    serial, results = run_serial(cells, steps)
    shard = Machine(MachineConfig(
        num_cells=cells, memory_per_cell=MEMORY, sanitize=True,
        shards=2))
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
    assert issubclass(SymbolicContext, CellContext)
    assert issubclass(sharded._ShardCellContext, CellContext)
    # The analyzer: call sites and instant delivery below the seam;
    # above it the stride-noting pair (COMM-STRIDE), write-through
    # pages refused, and a checkpoint site that never arms a gate.
    assert overridden(SymbolicContext) == {
        "_issue", "_post",
        "put_stride", "get_stride", "wt_bind", "wt_refresh", "checkpoint"}
    # A worker: shard logic below the seam; above it the wildcard
    # RECEIVE refusal and the two ops whose oplog item no event carries.
    assert overridden(sharded._ShardCellContext) == {
        "_issue", "_post", "_creg_store", "_creg_try_load",
        "recv", "flag_clear", "make_group"}
    # The row seam is an attribute each context binds: the trace's own
    # ``append`` on the functional machine, a back end's recorder else.
    machine = Machine(MachineConfig(num_cells=2, memory_per_cell=MEMORY))
    assert CellContext(machine, 0)._record == machine.trace.append
    symbolic = SymbolicMachine(2, memory_per_cell=MEMORY)
    ctx = SymbolicContext(symbolic, 0)
    assert ctx._record == ctx._record_site
