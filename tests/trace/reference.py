"""Reference implementations the trace tests hold ``repro.trace`` to.

These are the per-event v2 loader, the per-field column decode, the
JSON-``columns`` v2 writer and the v1 / stream-v1 line writers as they
shipped before the bulk loader, the shared extraction and the column
block replaced them, and the object recorder (:class:`ObjectRecorder`,
with its statistics and digest walks) as it shipped before probes
appended rows: slow, obviously right, and kept only as oracles and as
the makers of files in formats ``repro`` now only reads.
``golden_buffer`` is the fixed trace behind ``golden/small.v2.bin`` (a
column block) and the files the last commits with the older writers
wrote from it: ``small.v2.jsonl`` (the JSON encoding), ``small.v1.jsonl``
and ``small.stream-v1.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
from operator import attrgetter

import numpy as np

from repro.core.errors import TraceBufferOverflowError
from repro.trace.buffer import EVENT_FIELDS, ROW, TraceBuffer, pack
from repro.trace.events import EventKind, GroupTable, TraceEvent
from repro.trace.soa import INT_COLUMNS, TraceColumns
from repro.trace.stats import AppStatistics
from tests.trace.views import all_events, events_for, record

FIELDS = (
    "kind", "pe", "seq", "partner", "size", "stride", "send_flag",
    "recv_flag", "is_ack", "msg_id", "flag", "target", "group",
    "group_size", "work",
)
RANGE_FIELDS = (
    "raddr", "rchunk", "rcount", "rstep",
    "laddr", "lchunk", "lcount", "lstep",
)


def with_seq(trace: TraceBuffer, seqs) -> TraceBuffer:
    """``trace`` with its rows' ``seq`` values replaced, in record order:
    what a trace loaded from a file whose ``seq`` is not the record
    order holds (a probe cannot make one)."""
    assert trace._rows is not None
    trace._rows[EVENT_FIELDS.index("seq")::ROW] = list(seqs)
    return trace


def buffer_doc(trace: TraceBuffer) -> dict:
    """Everything a loaded buffer consists of."""
    assert trace.groups is not None
    return {
        "events": [[repr(ev) for ev in events_for(trace, pe)]
                   for pe in range(trace.num_pes)],
        "kinds": [type(ev.kind) for pe in range(trace.num_pes)
                  for ev in events_for(trace, pe)],
        "bools": [(type(ev.stride), type(ev.is_ack))
                  for pe in range(trace.num_pes)
                  for ev in events_for(trace, pe)],
        "total_events": trace.total_events,
        "seq": trace._seq,
        "groups": [trace.groups.members(g)
                   for g in range(len(trace.groups))],
        "phases": trace.phases,
        "attach_sink": trace.attach_sink,
        "sink": trace._sink,
        "capacity": trace.capacity,
    }


def reference_v2_json(trace: TraceBuffer) -> dict:
    """The JSON-``columns`` v2 document of ``trace``: what
    ``save_trace_v2`` dumped (compact separators, one line) before the
    block."""
    assert trace.groups is not None
    n = trace.num_pes
    events = [ev for pe in range(n) for ev in events_for(trace, pe)]
    doc: dict = {
        "format": "ap1000-trace-v2",
        "num_pes": n,
        "groups": [list(trace.groups.members(g))
                   for g in range(len(trace.groups))],
        "phases": list(trace.phases),
        "counts": [len(events_for(trace, pe)) for pe in range(n)],
        "columns": {name: [int(ev.kind) if name == "kind"
                           else getattr(ev, name) for ev in events]
                    for name in FIELDS},
    }
    if any(ev.is_annotated() for ev in events):
        doc["ranges"] = {name: [getattr(ev, name) for ev in events]
                         for name in RANGE_FIELDS}
    return doc


def _event_line(ev: TraceEvent) -> str:
    doc = {name: int(ev.kind) if name == "kind" else getattr(ev, name)
           for name in FIELDS}
    if ev.is_annotated():
        doc |= {name: getattr(ev, name) for name in RANGE_FIELDS}
    return json.dumps(doc) + "\n"


def reference_v1_text(trace: TraceBuffer) -> str:
    """The v1 file of ``trace``: a header, then one line per event in
    ``seq`` order (range fields on annotated events only)."""
    assert trace.groups is not None
    header: dict = {
        "format": "ap1000-trace-v1",
        "num_pes": trace.num_pes,
        "groups": {str(g): list(trace.groups.members(g))
                   for g in range(len(trace.groups))},
    }
    if trace.phases:
        header["phases"] = list(trace.phases)
    return json.dumps(header) + "\n" + "".join(
        map(_event_line, all_events(trace)))


def reference_stream_v1_text(trace: TraceBuffer,
                             events: list | None = None) -> str:
    """The stream-v1 file of ``trace`` as its live writer left it after
    emitting ``events`` (default: all, in ``seq`` order), the phases
    interned first: a header, a ``meta`` line per phase, the event
    lines and the footer."""
    assert trace.groups is not None
    events = all_events(trace) if events is None else events
    counts = [0] * trace.num_pes
    for ev in events:
        counts[ev.pe] += 1
    lines = [{"format": "ap1000-trace-stream-v1",
              "num_pes": trace.num_pes}]
    lines += [{"meta": "phase", "label": label, "id": pid}
              for pid, label in enumerate(trace.phases, start=1)]
    footer = {
        "footer": "ap1000-trace-stream-v1",
        "groups": [list(trace.groups.members(g))
                   for g in range(len(trace.groups))],
        "phases": list(trace.phases),
        "counts": counts,
        "total_events": len(events),
    }
    return ("".join(json.dumps(doc) + "\n" for doc in lines)
            + "".join(map(_event_line, events)) + json.dumps(footer) + "\n")


def reference_buffer_from_v2(doc: dict) -> TraceBuffer:
    """One ``TraceEvent(**kwargs)`` and one ``record`` per event."""
    num_pes = doc["num_pes"]
    groups = GroupTable(tuple(range(num_pes)))
    for members in doc["groups"][1:]:  # gid 0 is always "all cells"
        groups.intern(tuple(members))
    trace = TraceBuffer(num_pes=num_pes, capacity=1 << 62, groups=groups,
                        attach_sink=False)
    for label in doc.get("phases", []):
        trace.phase_id(label)
    cols = doc["columns"]
    ranges = doc.get("ranges")
    names = [name for name in FIELDS if name != "kind"]
    kinds = cols["kind"]
    idx = 0
    for count in doc["counts"]:
        for _ in range(count):
            kwargs = {name: cols[name][idx] for name in names}
            kwargs["kind"] = EventKind(kinds[idx])
            if ranges is not None:
                for name in RANGE_FIELDS:
                    kwargs[name] = ranges[name][idx]
            record(trace, TraceEvent(**kwargs))
            idx += 1
    return with_seq(trace, cols["seq"])  # the original global order


def reference_columns_from_buffer(trace: TraceBuffer) -> TraceColumns:
    """One list comprehension per field per PE, into preallocated
    arrays."""
    assert trace.groups is not None
    n = trace.num_pes
    counts = [len(events_for(trace, pe)) for pe in range(n)]
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    total = int(starts[-1])

    kind = np.empty(total, dtype=np.int16)
    ints = {name: np.empty(total, dtype=np.int64)
            for name in INT_COLUMNS if name != "kind"}
    group_size = np.empty(total, dtype=np.int64)
    work = np.empty(total, dtype=np.float64)

    sizes = tuple(len(trace.groups.members(g))
                  for g in range(len(trace.groups)))
    lo = 0
    for pe in range(n):
        events = events_for(trace, pe)
        hi = lo + len(events)
        kind[lo:hi] = [ev.kind for ev in events]
        for name, column in ints.items():
            column[lo:hi] = [getattr(ev, name) for ev in events]
        group_size[lo:hi] = [ev.group_size or sizes[ev.group]
                             for ev in events]
        work[lo:hi] = [ev.work for ev in events]
        lo = hi
    return TraceColumns(
        num_pes=n, starts=starts, kind=kind, work=work,
        group_size=group_size, group_sizes=sizes, **ints)


def golden_buffer() -> TraceBuffer:
    """Five PEs (one silent), every event kind, two sub-groups, two
    phases, annotated and plain transfers, shuffled ``seq`` values."""
    buf = TraceBuffer(num_pes=5)
    assert buf.groups is not None
    evens = buf.groups.intern((0, 2, 4))
    pair = buf.groups.intern((1, 2))
    setup, sweep = buf.phase_id("setup"), buf.phase_id("sweep")
    events = [
        TraceEvent(EventKind.PHASE, pe=0, flag=setup),
        TraceEvent(EventKind.COMPUTE, pe=0, work=12.5),
        TraceEvent(EventKind.COMPUTE, pe=0, work=0.1),
        TraceEvent(EventKind.RTSYS, pe=1, work=3.0000000000000004),
        TraceEvent(EventKind.PUT, pe=0, partner=1, size=512, stride=True,
                   send_flag=11, recv_flag=12, raddr=4096, rchunk=64,
                   rcount=8, rstep=128, laddr=0, lchunk=512, lcount=1,
                   lstep=0),
        TraceEvent(EventKind.PUT, pe=2, partner=2, size=0, recv_flag=13),
        TraceEvent(EventKind.GET, pe=1, partner=0, size=0, is_ack=True,
                   recv_flag=15),
        TraceEvent(EventKind.GET, pe=1, partner=4, size=256, send_flag=14,
                   recv_flag=15, laddr=8192, lchunk=256, lcount=1),
        TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=15, target=2),
        TraceEvent(EventKind.SEND, pe=4, partner=0, size=128, msg_id=7),
        TraceEvent(EventKind.RECV, pe=0, partner=4, size=128, msg_id=7),
        TraceEvent(EventKind.PHASE, pe=2, flag=sweep),
        TraceEvent(EventKind.BARRIER, pe=0, group=evens),
        TraceEvent(EventKind.BARRIER, pe=2, group=evens, group_size=3),
        TraceEvent(EventKind.BARRIER, pe=4, group=evens),
        TraceEvent(EventKind.GOP, pe=1, group=pair, group_size=2, size=8),
        TraceEvent(EventKind.GOP, pe=2, group=pair, group_size=2, size=8),
        TraceEvent(EventKind.VGOP, pe=1, group=pair, size=1024),
        TraceEvent(EventKind.VGOP, pe=2, group=pair, size=1024),
        TraceEvent(EventKind.REMOTE_LOAD, pe=2, partner=4, size=8),
        TraceEvent(EventKind.REMOTE_STORE, pe=4, partner=2, size=8),
        TraceEvent(EventKind.CREG_STORE, pe=0, partner=2, size=4),
        TraceEvent(EventKind.CREG_LOAD, pe=2, partner=2, size=4),
        TraceEvent(EventKind.RETRY, pe=1, partner=0),
        TraceEvent(EventKind.TIMEOUT, pe=4),
        TraceEvent(EventKind.SPILL, pe=0, size=16),
    ]
    for ev in events:
        record(buf, ev)
    # A loaded trace keeps the file's seq, whatever it is.
    return with_seq(buf, [(seq * 7) % len(events) + 100
                          for seq in range(len(events))])


class ObjectRecorder:
    """The recorder before probes appended rows: one :class:`TraceEvent`
    built per probe (the sanitizer's footprint stamped on it), per-PE
    event lists, and every reader a walk over the objects.  A machine
    records into it when it stands in for ``machine.trace``; the
    writer reads it through :meth:`block`, the one walk from objects to
    columns."""

    def __init__(self, num_pes: int, capacity: int = 1 << 62) -> None:
        self.num_pes = num_pes
        self.capacity = capacity
        self.groups = GroupTable(tuple(range(num_pes)))
        self.total_events = self._seq = 0
        self._events: list[list[TraceEvent]] = [[] for _ in range(num_pes)]
        self._phase_labels: list[str] = []

    def append(self, kind, pe, partner=-1, size=0, stride=False,
               send_flag=0, recv_flag=0, is_ack=False, msg_id=0, flag=0,
               target=0, group=0, group_size=0, work=0.0, ranges=None):
        ev = TraceEvent(kind, pe, 0, partner, size, stride, send_flag,
                        recv_flag, is_ack, msg_id, flag, target, group,
                        group_size, work, *(ranges or ()))
        return self.record(ev).seq

    def record(self, event: TraceEvent) -> TraceEvent:
        if self.total_events >= self.capacity:
            raise TraceBufferOverflowError(
                f"trace buffer full at {self.capacity} events")
        event.seq = self._seq
        self._seq += 1
        self._events[event.pe].append(event)
        self.total_events += 1
        return event

    def phase_id(self, label: str) -> int:
        if label not in self._phase_labels:
            self._phase_labels.append(label)
        return self._phase_labels.index(label) + 1

    @property
    def phases(self) -> tuple[str, ...]:
        return tuple(self._phase_labels)

    def events_for(self, pe: int) -> list[TraceEvent]:
        return self._events[pe]

    def all_events(self) -> list[TraceEvent]:
        merged = [ev for pe in range(self.num_pes)
                  for ev in self.events_for(pe)]
        merged.sort(key=lambda ev: ev.seq)
        return merged

    def count(self, kind: EventKind, pe: int | None = None) -> int:
        pes = range(self.num_pes) if pe is None else (pe,)
        return sum(1 for pe in pes for ev in self.events_for(pe)
                   if ev.kind is kind)

    def coalesce_compute(self) -> None:
        for pe in range(self.num_pes):
            merged: list[TraceEvent] = []
            for ev in self.events_for(pe):
                if (merged
                        and ev.kind in (EventKind.COMPUTE, EventKind.RTSYS)
                        and merged[-1].kind is ev.kind):
                    merged[-1].work += ev.work
                else:
                    merged.append(ev)
            self.total_events -= len(self._events[pe]) - len(merged)
            self._events[pe] = merged

    def block(self) -> dict[str, np.ndarray]:
        """The column block by the walk over the objects (per-PE
        contiguous, range columns when any event is annotated)."""
        ordered = [ev for pe in range(self.num_pes)
                   for ev in self.events_for(pe)]
        names = FIELDS + RANGE_FIELDS * any(ev.is_annotated()
                                            for ev in ordered)
        return {name: pack(name, list(map(attrgetter(name), ordered)))
                for name in names}


def reference_statistics(trace) -> AppStatistics:
    """The Table 3 row by the walk over a trace's event objects."""
    n = trace.num_pes
    counts = {kind: 0 for kind in EventKind}
    puts_stride = gets_stride = msg_bytes = msg_count = 0
    for pe in range(n):
        for ev in events_for(trace, pe):
            counts[ev.kind] += 1
            if ev.kind is EventKind.PUT:
                puts_stride += ev.stride
                msg_bytes += ev.size
                msg_count += 1
            elif ev.kind is EventKind.GET:
                if ev.is_ack:       # "without GET for acknowledge"
                    counts[ev.kind] -= 1
                    continue
                gets_stride += ev.stride
                msg_bytes += ev.size
                msg_count += 1
    return AppStatistics(
        num_pes=n,
        send_per_pe=counts[EventKind.SEND] / n,
        gop_per_pe=counts[EventKind.GOP] / n,
        vgop_per_pe=counts[EventKind.VGOP] / n,
        sync_per_pe=counts[EventKind.BARRIER] / n,
        put_per_pe=(counts[EventKind.PUT] - puts_stride) / n,
        puts_per_pe=puts_stride / n,
        get_per_pe=(counts[EventKind.GET] - gets_stride) / n,
        gets_per_pe=gets_stride / n,
        avg_message_bytes=(msg_bytes / msg_count) if msg_count else 0.0,
        retries=counts[EventKind.RETRY],
        timeouts=counts[EventKind.TIMEOUT],
        spills=counts[EventKind.SPILL],
    )


def reference_digest(trace) -> str:
    """``repro.faults.chaos.trace_digest`` by the walk over a trace's
    event objects in ``seq`` order, ``msg_id`` renumbered densely."""
    remap: dict[int, int] = {0: 0}
    h = hashlib.sha256()
    for ev in all_events(trace):
        if ev.msg_id not in remap:
            remap[ev.msg_id] = len(remap)
        record = (
            int(ev.kind), ev.pe, ev.seq, ev.partner, ev.size,
            int(ev.stride), ev.send_flag, ev.recv_flag, int(ev.is_ack),
            remap[ev.msg_id], ev.flag, ev.target, ev.group,
            ev.group_size, round(ev.work, 9), ev.raddr, ev.rchunk,
            ev.rcount, ev.rstep, ev.laddr, ev.lchunk, ev.lcount,
            ev.lstep,
        )
        h.update(repr(record).encode())
    return h.hexdigest()
