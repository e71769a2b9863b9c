"""A trace's rows as :class:`TraceEvent` objects, for tests.

A :class:`~repro.trace.buffer.TraceBuffer` is its columns: probes
``append`` rows and every reader under ``src/`` reads ``block()``.
Tests that build traces by hand or look at single events use these
three functions instead: views of the block (one ``map`` over its
columns) and a row appended from an event object.
"""

from __future__ import annotations

import numpy as np

from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent

_KIND_OF = {int(kind): kind for kind in EventKind}


def _views(trace: TraceBuffer, index: slice | np.ndarray) -> list[TraceEvent]:
    columns = [column[index].tolist() for column in trace.block().values()]
    return list(map(TraceEvent, map(_KIND_OF.__getitem__, columns[0]),
                    *columns[1:]))


def events_for(trace: TraceBuffer, pe: int) -> list[TraceEvent]:
    """PE ``pe``'s events in program order."""
    lo, hi = np.searchsorted(trace.block()["pe"], (pe, pe + 1)).tolist()
    return _views(trace, slice(lo, hi))


def all_events(trace: TraceBuffer) -> list[TraceEvent]:
    """Every event in global issue (``seq``) order."""
    return _views(trace, np.argsort(trace.block()["seq"], kind="stable"))


def record(trace: TraceBuffer, event: TraceEvent) -> TraceEvent:
    """Append ``event`` as a row; its ``seq`` becomes the row's."""
    return trace.record(event)
