"""The row recorder against the object recorder it replaced.

A probe appends one fixed-width row to :class:`TraceBuffer`; the
oracle (``reference.ObjectRecorder``) builds one :class:`TraceEvent`
per probe and answers every reader by walking the objects.  One run of
a generated program (``tests/programs.py``), sanitized and not, feeds
both, and every reader must agree: the v2 file bytes, the digest, the
Table 3 statistics, the per-kind counts and the compute coalescing.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import TraceBufferOverflowError
from repro.faults.chaos import trace_digest
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind
from repro.trace.io import load_trace, save_trace
from repro.trace.soa import coalesce_columns, columns_from_buffer
from repro.trace.stats import collect_statistics
from tests.programs import EVERY_OP, MEMORY, programs, round_program

from .reference import ObjectRecorder, reference_digest, reference_statistics


class Tee:
    """Stands in for ``machine.trace``: every row goes to the row
    buffer and to the oracle, which share one group table."""

    def __init__(self, rows: TraceBuffer, oracle: ObjectRecorder) -> None:
        self.rows, self.oracle = rows, oracle
        oracle.groups = rows.groups

    def append(self, *row, **fields) -> int:
        seq = self.rows.append(*row, **fields)
        assert self.oracle.append(*row, **fields) == seq
        return seq

    def phase_id(self, label: str) -> int:
        assert self.oracle.phase_id(label) == self.rows.phase_id(label)
        return self.rows.phase_id(label)

    def __getattr__(self, name: str):
        return getattr(self.rows, name)


def dump(trace) -> bytes:
    out = io.BytesIO()
    save_trace(trace, out)
    return out.getvalue()


def recorded_both_ways(cells, steps, sanitize):
    machine = Machine(MachineConfig(num_cells=cells,
                                    memory_per_cell=MEMORY,
                                    sanitize=sanitize))
    rows, oracle = machine.trace, ObjectRecorder(cells)
    machine.trace = Tee(rows, oracle)
    machine.run(round_program, steps=steps)
    return rows, oracle


@settings(max_examples=25, deadline=None)
@given(cells=st.sampled_from([4, 5]), steps=programs,
       sanitize=st.booleans())
@example(cells=5, steps=EVERY_OP, sanitize=True)
@example(cells=4, steps=EVERY_OP, sanitize=False)
def test_rows_read_as_the_objects_did(cells, steps, sanitize):
    rows, oracle = recorded_both_ways(cells, steps, sanitize)
    # The digest reads the rows; it must pack no block to do so.
    assert trace_digest(rows) == reference_digest(oracle)
    assert rows._block is None
    assert dump(rows) == dump(oracle)
    assert collect_statistics(rows) == reference_statistics(oracle)
    for kind in EventKind:
        for pe in (None, *range(cells)):
            assert rows.count(kind, pe) == oracle.count(kind, pe)
    assert [rows.events_for(pe) for pe in range(cells)] \
        == [oracle.events_for(pe) for pe in range(cells)]
    # A loaded trace digests as the recorded one.
    assert trace_digest(load_trace(io.BytesIO(dump(rows)))) \
        == trace_digest(rows)
    # The merge on the buffer is the merge on decoded columns, and the
    # merge the objects made.
    before = columns_from_buffer(rows)
    rows.coalesce_compute()
    oracle.coalesce_compute()
    after = columns_from_buffer(rows)
    merged = coalesce_columns(before)
    for name in ("starts", "kind", "partner", "size", "msg_id", "group",
                 "group_size", "work"):
        np.testing.assert_array_equal(getattr(after, name),
                                      getattr(merged, name), err_msg=name)
    assert after.work.tobytes() == merged.work.tobytes()
    assert dump(rows) == dump(oracle)
    assert trace_digest(rows) == reference_digest(oracle)


def test_overflow_at_exactly_capacity():
    """The row path refuses the row after the ``capacity``-th, on a bare
    buffer and under a machine's probes, and keeps what it holds."""
    buf = TraceBuffer(num_pes=2, capacity=5)
    for pe in (0, 1, 0, 1, 0):
        buf.append(EventKind.COMPUTE, pe, work=1.0)
    with pytest.raises(TraceBufferOverflowError):
        buf.append(EventKind.COMPUTE, 1, work=1.0)
    assert buf.total_events == 5 and buf.count(EventKind.COMPUTE) == 5

    def machine(capacity):
        return Machine(MachineConfig(num_cells=4, memory_per_cell=MEMORY,
                                     trace_capacity=capacity))

    full = machine(1 << 20)
    full.run(round_program, steps=EVERY_OP)
    short = machine(full.trace.total_events - 1)
    with pytest.raises(TraceBufferOverflowError):
        short.run(round_program, steps=EVERY_OP)
    assert short.trace.total_events == full.trace.total_events - 1
