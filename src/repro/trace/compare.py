"""Trace comparison: diff two traces event-by-event.

Functional runs are deterministic (fixed seeds, deterministic
scheduling), so two runs of the same configuration must produce
*identical* traces — this module verifies that, and when traces differ
(e.g. after a code change), reports the first divergence precisely
instead of a bare assertion failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind

#: Fields that define an event's identity for comparison (``seq`` is
#: included: global issue order is part of determinism).
COMPARE_FIELDS = (
    "kind", "pe", "seq", "partner", "size", "stride", "send_flag",
    "recv_flag", "is_ack", "flag", "target", "group", "group_size", "work",
)
#: ``msg_id`` carries a process-global packet serial, so it is excluded
#: by default: two machines in one process draw from one counter.
VOLATILE_FIELDS = ("msg_id",)


@dataclass(frozen=True)
class TraceDivergence:
    """The first point at which two traces disagree."""

    pe: int
    index: int
    field: str
    left: object
    right: object

    def describe(self) -> str:
        return (f"PE {self.pe}, event {self.index}: {self.field} differs "
                f"({self.left!r} vs {self.right!r})")


@dataclass(frozen=True)
class LengthMismatch:
    pe: int
    left_events: int
    right_events: int

    def describe(self) -> str:
        return (f"PE {self.pe}: {self.left_events} events vs "
                f"{self.right_events}")


def compare_traces(left: TraceBuffer, right: TraceBuffer, *,
                   fields=COMPARE_FIELDS):
    """Return None if the traces match, else the first divergence: PE by
    PE, a PE's event count before its events, an event's ``fields`` in
    order."""
    if left.num_pes != right.num_pes:
        return LengthMismatch(pe=-1, left_events=left.num_pes,
                              right_events=right.num_pes)
    lb, rb = left.block(), right.block()
    pes = np.arange(left.num_pes + 1)
    starts = np.searchsorted(lb["pe"], pes), np.searchsorted(rb["pe"], pes)
    counts = [np.diff(ends).tolist() for ends in starts]
    short = np.flatnonzero(np.not_equal(*counts))
    # Up to the first PE whose counts differ, the rows line up.
    end = int(starts[0][short[0]]) if len(short) else len(lb["pe"])
    differ = np.array([lb[name][:end] != rb[name][:end]
                       for name in fields]).reshape(len(fields), end)
    rows = np.flatnonzero(differ.any(axis=0))
    if len(rows):
        row = int(rows[0])
        pe = int(lb["pe"][row])
        name = fields[int(np.argmax(differ[:, row]))]
        lv, rv = lb[name][row].item(), rb[name][row].item()
        if name == "kind":
            lv, rv = EventKind(lv), EventKind(rv)
        return TraceDivergence(pe=pe, index=row - int(starts[0][pe]),
                               field=name, left=lv, right=rv)
    if len(short):
        pe = int(short[0])
        return LengthMismatch(pe=pe, left_events=counts[0][pe],
                              right_events=counts[1][pe])
    return None


def assert_traces_equal(left: TraceBuffer, right: TraceBuffer, *,
                        fields=COMPARE_FIELDS) -> None:
    """Raise ``AssertionError`` with a precise message on divergence."""
    divergence = compare_traces(left, right, fields=fields)
    if divergence is not None:
        raise AssertionError(f"traces differ: {divergence.describe()}")


def trace_fingerprint(trace: TraceBuffer, *, fields=COMPARE_FIELDS) -> int:
    """A cheap order-sensitive hash of a trace (for regression logs)."""
    acc = hash((trace.num_pes,))
    block = trace.block()
    for key in zip(*(block[name].tolist() for name in fields)):
        acc = hash((acc, key))
    return acc
