"""Bounded trace buffer: the trace as its columns.

The real AP1000 probes stored events "in a trace buffer along with time
and message information", and the buffer was finite — the paper could
only simulate the first 10 iterations of SP and TOMCATV "because of trace
buffer limitations", and could not simulate FT without stride transfers
at all because the trace overflowed.  We keep the same failure mode (it
is part of faithfully reproducing the methodology) but with a
configurable, much larger bound.

A probe writes one fixed-width record, as the AP1000's did: one value
per :data:`EVENT_FIELDS` name (plus the :data:`RANGE_FIELDS` once the
sanitizer stamps a row), and a recorded buffer is those growable
columns plus the block it packs from them when a consumer asks.  No
event object is built, walked or counted on the way to a file;
:class:`TraceEvent` is only the view type of :meth:`TraceBuffer.events_for`
/ :meth:`TraceBuffer.all_events` and the argument of the
:meth:`TraceBuffer.record` shim.
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
#: Values per row: a row is one value per :data:`EVENT_FIELDS` name.
ROW = len(EVENT_FIELDS)
#: The range fields of a row the sanitizer did not stamp.
UNANNOTATED = tuple(f.default for f in fields(TraceEvent)[ROW:])

_INTS = tuple(np.dtype(code) for code in ("|i1", "<i2", "<i4", "<i8"))
#: What each event field's block column may be stored as, on disk and in
#: memory: explicit little-endian, integer widths narrowest first.
FIELD_DTYPES = {
    f.name: {"bool": (np.dtype("|b1"),),
             "float": (np.dtype("<f8"),)}.get(f.type, _INTS)
    for f in fields(TraceEvent)}

#: EventKind by value, for turning a ``kind`` column back into events.
_KIND_OF = {int(kind): kind for kind in EventKind}
_MERGED = (int(EventKind.COMPUTE), int(EventKind.RTSYS))


def pack(name: str, values: list | np.ndarray) -> np.ndarray:
    """One field's values as its block column: read-only, ints in the
    narrowest dtype that holds the column's range (a pure function of
    the values, so equal traces make equal files)."""
    choices = FIELD_DTYPES[name]
    column = np.asarray(values, dtype=choices[-1])
    if column.dtype.kind == "i":
        lo, hi = ((int(column.min()), int(column.max())) if len(column)
                  else (0, 0))
        column = column.astype(next(
            dtype for dtype in choices
            if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max))
    column.setflags(write=False)
    return column


def block_of(columns: dict) -> dict[str, np.ndarray]:
    """Columns in record order (lists or arrays) as a block: stably
    sorted by ``pe`` and packed, :data:`RANGE_FIELDS` kept only when a
    row carries a sanitizer footprint."""
    order = np.argsort(np.asarray(columns["pe"], np.int64), kind="stable")
    names = EVENT_FIELDS + RANGE_FIELDS * ("raddr" in columns and any(
        np.max(np.asarray(columns[name]), initial=-1) >= 0
        for name in ("raddr", "laddr")))
    return {name: pack(name, np.asarray(
        columns[name], FIELD_DTYPES[name][-1])[order]) for name in names}


def coalesced(kind: np.ndarray, starts: np.ndarray, work: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray] | None:
    """Merge adjacent COMPUTE (and adjacent RTSYS) events per PE, for
    events per-PE contiguous (``starts[pe]`` is PE ``pe``'s first): the
    mask of events kept and the work column with each merged event's
    work folded, left to right, into the nearest kept event before it.
    None when nothing merges."""
    total = len(kind)
    same_prev = np.zeros(total, dtype=bool)
    same_prev[1:] = np.isin(kind[1:], _MERGED) & (kind[1:] == kind[:-1])
    boundaries = starts[1:-1]
    same_prev[boundaries[boundaries < total]] = False   # trailing empty PEs
    if not same_prev.any():
        return None
    keep = ~same_prev
    target = np.maximum.accumulate(
        np.where(keep, np.arange(total), -1)).tolist()
    merged = work.tolist()
    for i in np.nonzero(same_prev)[0].tolist():
        merged[target[i]] += merged[i]
    return keep, np.asarray(merged)


class TraceSink(Protocol):
    """Consumer of live trace rows (see
    :class:`repro.trace.io.StreamTraceWriter`).

    A sink binds to the *first* buffer created inside a
    :func:`streaming_to` context (``bind`` returns False to refuse) and
    then observes every recorded row and phase interning in order.
    """

    def bind(self, buffer: TraceBuffer) -> bool: ...

    def emit(self, row: tuple) -> None: ...

    def phase(self, label: str, pid: int) -> None: ...


#: Ambient sink for incremental trace writing: the one run setting that
#: is not a ``MachineConfig`` field, because it holds an open file the
#: caller must close in a ``finally``.  A ContextVar (not a module
#: global) so nested tools and tests compose.
_active_sink: ContextVar[TraceSink | None] = ContextVar(
    "repro_trace_sink", default=None)


@contextlib.contextmanager
def streaming_to(sink: TraceSink) -> Iterator[TraceSink]:
    """Stream rows of the next-created trace buffer into ``sink``."""
    token = _active_sink.set(sink)
    try:
        yield sink
    finally:
        _active_sink.reset(token)


@dataclass
class TraceBuffer:
    """A trace as fixed-width rows, with a machine-wide capacity bound.

    Rows are held in the order appended in one flat list, ``ROW``
    values a row, so field ``k``'s column is the slice ``_rows[k::ROW]``
    (one ``extend`` a probe: half the cost of an ``append`` per field
    list); :data:`RANGE_FIELDS` get a second flat list, ``_ranges``,
    once a stamped row arrives.  The *block* — what a v2 file holds and
    replay decodes — is those columns through :func:`block_of`.  A
    loaded buffer is a block alone until something records into it.

    One staleness rule, enforced by :meth:`block`: a held block answers
    for the buffer while the ``(events recorded, events held)`` pair it
    was made at stands.  :meth:`append` raises the first;
    :meth:`coalesce_compute` lowers the second and keeps the merged
    block as the buffer's only storage.
    """

    num_pes: int
    capacity: int = DEFAULT_CAPACITY
    groups: GroupTable | None = None
    #: Whether to bind to the ambient streaming sink at creation.
    #: Loaders pass False so re-reading a trace never re-streams it.
    attach_sink: bool = True
    #: The rows, flat; None on a buffer whose rows are a block only.
    _rows: list | None = field(default_factory=list, repr=False)
    _ranges: list | None = field(default=None, repr=False)
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
        field order) and no rows."""
        trace = cls(num_pes=num_pes, capacity=1 << 62, groups=groups,
                    attach_sink=False, _rows=None)
        for label in phases:
            trace.phase_id(label)
        trace.total_events = trace._seq = len(block["kind"])
        trace._block = (trace._seq, trace.total_events, block)
        return trace

    def _columns(self) -> dict[str, list]:
        """Every field's values in record order, sliced out of the rows."""
        rows, ranges = self._rows, self._ranges
        assert rows is not None
        columns = {name: rows[k::ROW] for k, name in enumerate(EVENT_FIELDS)}
        if ranges is not None:
            columns.update((name, ranges[k::len(RANGE_FIELDS)])
                           for k, name in enumerate(RANGE_FIELDS))
        return columns

    def block(self) -> dict[str, np.ndarray]:
        """The column block: the held one while it stands, else packed
        from the rows and held."""
        held = self._block
        if held is not None and held[:2] == (self._seq, self.total_events):
            return held[2]
        block = block_of(self._columns())
        self._block = (self._seq, self.total_events, block)
        return block

    def _open(self) -> list:
        """A block-only buffer's rows, in block order."""
        columns = [column.tolist() for column in self.block().values()]
        self._rows = [value for row in zip(*columns[:ROW]) for value in row]
        if columns[ROW:]:
            self._ranges = [value for row in zip(*columns[ROW:])
                            for value in row]
        return self._rows

    def append(self, kind: EventKind, pe: int, partner: int = -1,
               size: int = 0, stride: bool = False, send_flag: int = 0,
               recv_flag: int = 0, is_ack: bool = False, msg_id: int = 0,
               flag: int = 0, target: int = 0, group: int = 0,
               group_size: int = 0, work: float = 0.0,
               ranges: tuple | None = None) -> int:
        """Record one row (``ranges``: the sanitizer's eight
        :data:`RANGE_FIELDS` values, or None) and return its global
        sequence number."""
        if self.total_events >= self.capacity:
            raise TraceBufferOverflowError(
                f"trace buffer full at {self.capacity} events (the AP1000 "
                "probes hit the same limit; raise `capacity` or shrink the "
                "workload)"
            )
        rows = self._rows
        if rows is None:
            rows = self._open()
        seq = self._seq
        self._seq = seq + 1
        self.total_events += 1
        row = (kind, pe, seq, partner, size, stride, send_flag, recv_flag,
               is_ack, msg_id, flag, target, group, group_size, work)
        rows.extend(row)
        if ranges is not None or self._ranges is not None:
            if self._ranges is None:
                self._ranges = list(UNANNOTATED) * (len(rows) // ROW - 1)
            self._ranges.extend(ranges or UNANNOTATED)
        if self._sink is not None:
            self._sink.emit(row + ranges if ranges is not None else row)
        return seq

    def append_rows(self, rows: np.ndarray,
                    ranges: np.ndarray | None = None) -> None:
        """Record ``rows`` as one :meth:`append` per row would: an
        ``n x ROW`` object array (its ``seq`` column is numbered here),
        and ``ranges`` None or ``n x 8`` range values (a row whose two
        addresses are -1 is unstamped).  The caller checked that the
        buffer has room for them."""
        listed = self._rows
        if listed is None:
            listed = self._open()
        count = len(rows)
        seq = self._seq
        values = rows.ravel().tolist()
        values[2::ROW] = range(seq, seq + count)
        self._seq = seq + count
        self.total_events += count
        listed.extend(values)
        stamped = None
        if ranges is not None:
            stamped = (ranges[:, 0] >= 0) | (ranges[:, 4] >= 0)
            if self._ranges is None and stamped.any():
                self._ranges = list(UNANNOTATED) * (len(listed) // ROW
                                                    - count)
        if self._ranges is not None:
            self._ranges.extend(UNANNOTATED * count if ranges is None
                                else ranges.ravel().tolist())
        if self._sink is not None:
            extra = [()] * count if ranges is None else [
                tuple(footprint) if keep else ()
                for footprint, keep in zip(ranges.tolist(), stamped.tolist())]
            for start, more in zip(range(0, len(values), ROW), extra):
                self._sink.emit(tuple(values[start:start + ROW]) + more)

    def record(self, event: TraceEvent) -> TraceEvent:
        """Append one event object as a row (the shim of callers that
        build events: ingest, hand-made traces, the sharded replay)."""
        values = [getattr(event, name) for name in _NAMES]
        event.seq = self.append(
            *values[:2], *values[3:ROW],
            ranges=tuple(values[ROW:]) if event.is_annotated() else None)
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

    def seq_columns(self) -> dict[str, list]:
        """Every field's values in global issue (``seq``) order, as
        Python values: a recorded buffer's rows as they are (no block is
        packed for them), else the block's columns sorted by ``seq``."""
        if self._rows is not None:
            columns = self._columns()
            if np.all(np.diff(columns["seq"]) > 0):     # as appended
                return columns
        block = self.block()
        order = np.argsort(block["seq"], kind="stable")
        return {name: column[order].tolist() for name, column in block.items()}

    def _views(self, index: slice | np.ndarray) -> list[TraceEvent]:
        columns = [column[index].tolist() for column in self.block().values()]
        return list(map(TraceEvent, map(_KIND_OF.__getitem__, columns[0]),
                        *columns[1:]))

    def events_for(self, pe: int) -> list[TraceEvent]:
        """PE ``pe``'s events in program order, as views of the block."""
        lo, hi = np.searchsorted(self.block()["pe"], (pe, pe + 1)).tolist()
        return self._views(slice(lo, hi))

    def all_events(self) -> list[TraceEvent]:
        """Every event in global issue order, as views of the block."""
        return self._views(np.argsort(self.block()["seq"], kind="stable"))

    def count(self, kind: EventKind, pe: int | None = None) -> int:
        block = self.block()
        kinds = block["kind"][block["pe"] == pe if pe is not None else ...]
        return int(np.bincount(kinds, minlength=len(EventKind))[kind])

    def coalesce_compute(self) -> None:
        """Merge adjacent COMPUTE (and adjacent RTSYS) events per PE.

        Applications may charge work in many small slices; MLSim timing is
        unaffected by merging, and replay gets cheaper.  The merged
        block becomes the buffer's storage.
        """
        block = self.block()
        starts = np.searchsorted(block["pe"], np.arange(self.num_pes + 1))
        merged = coalesced(block["kind"], starts, block["work"])
        if merged is None:
            return
        keep, work = merged
        self._rows = self._ranges = None
        self.total_events = int(np.count_nonzero(keep))
        self._block = (self._seq, self.total_events, block_of(
            {name: column[keep] for name, column
             in (block | {"work": work}).items()}))
