"""Bounded trace buffer.

The real AP1000 probes stored events "in a trace buffer along with time
and message information", and the buffer was finite — the paper could
only simulate the first 10 iterations of SP and TOMCATV "because of trace
buffer limitations", and could not simulate FT without stride transfers
at all because the trace overflowed.  We keep the same failure mode (it
is part of faithfully reproducing the methodology) but with a
configurable, much larger bound.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from typing import Protocol

import numpy as np

from repro.core.errors import TraceBufferOverflowError
from repro.trace.events import EventKind, GroupTable, TraceEvent

#: Default machine-wide event capacity.
DEFAULT_CAPACITY = 4_000_000

_NAMES = tuple(f.name for f in fields(TraceEvent))
#: A :class:`TraceEvent`'s fields in its positional order: the columns
#: of a v2 block (and the keys of an imported v1 line), then the
#: sanitizer annotations (repro.check), written only when present so
#: that unsanitized traces keep the original format.
EVENT_FIELDS = _NAMES[:_NAMES.index("raddr")]
RANGE_FIELDS = _NAMES[_NAMES.index("raddr"):]

#: EventKind by value, for turning a ``kind`` column back into events.
_KIND_OF = {int(kind): kind for kind in EventKind}


class TraceSink(Protocol):
    """Consumer of live trace events (see
    :class:`repro.trace.io.StreamTraceWriter`).

    A sink binds to the *first* buffer created inside a
    :func:`streaming_to` context (``bind`` returns False to refuse) and
    then observes every recorded event and phase interning in order.
    """

    def bind(self, buffer: TraceBuffer) -> bool: ...

    def emit(self, event: TraceEvent) -> None: ...

    def phase(self, label: str, pid: int) -> None: ...


#: Ambient sink for incremental trace writing.  A ContextVar (not a
#: module global) so nested tools and tests compose; the pattern
#: mirrors ``repro.trace.sanitize.enabled`` / ``repro.obs.enabled``.
_active_sink: ContextVar[TraceSink | None] = ContextVar(
    "repro_trace_sink", default=None)


@contextlib.contextmanager
def streaming_to(sink: TraceSink) -> Iterator[TraceSink]:
    """Stream events of the next-created trace buffer into ``sink``."""
    token = _active_sink.set(sink)
    try:
        yield sink
    finally:
        _active_sink.reset(token)


@dataclass
class TraceBuffer:
    """Per-PE event lists with a machine-wide capacity bound.

    A buffer may also hold its events as a *column block*: one
    read-only array per :data:`EVENT_FIELDS` name (plus
    :data:`RANGE_FIELDS` when any event is annotated), events per-PE
    contiguous.  That is what a v2 file contains and what replay
    decodes, so a loaded buffer starts as a block alone and builds its
    :class:`TraceEvent` objects on the first :meth:`events_for`,
    :meth:`all_events` or :meth:`record`; a recorded buffer gains a
    block at its first save (:func:`repro.trace.soa.event_block`).

    One staleness rule, enforced by :meth:`block`: the block answers
    for the buffer only while no event object can have changed under
    it.  Building a loaded buffer's events drops its block; a block
    made from recorded events is kept under the ``(events recorded,
    events held)`` pair it was made at: :meth:`record` raises the
    first, and the only in-place rewrite of a recorded event,
    :meth:`coalesce_compute`, changes ``work`` only when it also lowers
    the second.
    """

    num_pes: int
    capacity: int = DEFAULT_CAPACITY
    groups: GroupTable | None = None
    #: Whether to bind to the ambient streaming sink at creation.
    #: Loaders pass False so re-reading a trace never re-streams it.
    attach_sink: bool = True
    #: None on a loaded buffer whose events are still columns.
    _events: list[list[TraceEvent]] | None = field(default_factory=list)
    _seq: int = 0
    total_events: int = 0
    _phase_labels: list[str] = field(default_factory=list)
    _phase_ids: dict[str, int] = field(default_factory=dict)
    _sink: TraceSink | None = field(default=None, repr=False,
                                    compare=False)
    #: ``(_seq, total_events, {field: array})`` as of when it was made.
    _block: tuple[int, int, dict[str, np.ndarray]] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self._events:
            self._events = [[] for _ in range(self.num_pes)]
        if self.groups is None:
            self.groups = GroupTable(tuple(range(self.num_pes)))
        if self.attach_sink and self._sink is None:
            sink = _active_sink.get()
            if sink is not None and sink.bind(self):
                self._sink = sink

    @classmethod
    def from_block(cls, num_pes: int, groups: GroupTable, phases: list[str],
                   block: dict[str, np.ndarray]) -> TraceBuffer:
        """A loaded trace: ``block`` (checked by the loader, keys in
        field order) and not one event object."""
        trace = cls(num_pes=num_pes, capacity=1 << 62, groups=groups,
                    attach_sink=False)
        for label in phases:
            trace.phase_id(label)
        trace._events = None
        trace.total_events = trace._seq = len(block["kind"])
        trace.hold_block(block)
        return trace

    def block(self) -> dict[str, np.ndarray] | None:
        """The column block, or None when there is none or it is stale."""
        held = self._block
        if held is not None and held[:2] == (self._seq, self.total_events):
            return held[2]
        return None

    def hold_block(self, block: dict[str, np.ndarray]) -> None:
        """Keep ``block`` as the columns of the events as they are now."""
        self._block = (self._seq, self.total_events, block)

    def _build_events(self) -> None:
        """A loaded buffer's events, from its block, which is dropped:
        from here on the objects may be changed in place."""
        assert self._block is not None
        block, self._block = self._block[2], None
        columns = [column.tolist() for column in block.values()]
        kinds = map(_KIND_OF.__getitem__, columns[0])
        events = list(map(TraceEvent, kinds, *columns[1:]))
        ends = np.cumsum(np.bincount(block["pe"], minlength=self.num_pes))
        self._events = [events[lo:hi] for lo, hi
                        in zip([0, *ends.tolist()], ends.tolist())]

    def record(self, event: TraceEvent) -> TraceEvent:
        """Append an event, assigning its global sequence number."""
        if self._events is None:
            self._build_events()
        if self.total_events >= self.capacity:
            raise TraceBufferOverflowError(
                f"trace buffer full at {self.capacity} events (the AP1000 "
                "probes hit the same limit; raise `capacity` or shrink the "
                "workload)"
            )
        event.seq = self._seq
        self._seq += 1
        self._events[event.pe].append(event)
        self.total_events += 1
        if self._sink is not None:
            self._sink.emit(event)
        return event

    def phase_id(self, label: str) -> int:
        """Intern a phase label and return its 1-based id.

        PHASE events carry the id in their ``flag`` field (0 means "no
        phase"), keeping the event record fixed-width.
        """
        pid = self._phase_ids.get(label)
        if pid is None:
            self._phase_labels.append(label)
            pid = len(self._phase_labels)
            self._phase_ids[label] = pid
            if self._sink is not None:
                self._sink.phase(label, pid)
        return pid

    def __getstate__(self) -> dict:
        # Checkpoints pickle the whole buffer; a file-backed sink cannot
        # survive that, so a resumed run records without streaming.
        state = self.__dict__.copy()
        state["_sink"] = None
        return state

    def phase_label(self, pid: int) -> str:
        """Resolve a phase id back to its label."""
        if 1 <= pid <= len(self._phase_labels):
            return self._phase_labels[pid - 1]
        return f"phase-{pid}"

    @property
    def phases(self) -> tuple[str, ...]:
        """All interned phase labels, in id order."""
        return tuple(self._phase_labels)

    def events_for(self, pe: int) -> list[TraceEvent]:
        if self._events is None:
            self._build_events()
        return self._events[pe]

    def all_events(self) -> list[TraceEvent]:
        """Every event in global issue order."""
        merged = [ev for pe in range(self.num_pes)
                  for ev in self.events_for(pe)]
        merged.sort(key=lambda ev: ev.seq)
        return merged

    def count(self, kind: EventKind, pe: int | None = None) -> int:
        pes = range(self.num_pes) if pe is None else (pe,)
        return sum(1 for pe in pes for ev in self.events_for(pe)
                   if ev.kind is kind)

    def coalesce_compute(self) -> None:
        """Merge adjacent COMPUTE (and adjacent RTSYS) events per PE.

        Applications may charge work in many small slices; MLSim timing is
        unaffected by merging, and replay gets cheaper.
        """
        for pe in range(self.num_pes):
            merged: list[TraceEvent] = []
            for ev in self.events_for(pe):
                if (merged
                        and ev.kind in (EventKind.COMPUTE, EventKind.RTSYS)
                        and merged[-1].kind is ev.kind):
                    merged[-1].work += ev.work
                else:
                    merged.append(ev)
            removed = len(self._events[pe]) - len(merged)
            self._events[pe] = merged
            self.total_events -= removed
