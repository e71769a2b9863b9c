"""Reference implementations the trace tests hold ``repro.trace`` to.

These are the per-event v2 loader, the per-field column decode, the
JSON-``columns`` v2 writer and the v1 / stream-v1 line writers as they
shipped before the bulk loader, the shared extraction and the column
block replaced them: slow, obviously right, and kept only as oracles
and as the makers of files in formats ``repro`` now only reads.
``golden_buffer`` is the fixed trace behind ``golden/small.v2.bin`` (a
column block) and the files the last commits with the older writers
wrote from it: ``small.v2.jsonl`` (the JSON encoding), ``small.v1.jsonl``
and ``small.stream-v1.jsonl``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, GroupTable, TraceEvent
from repro.trace.soa import INT_COLUMNS, TraceColumns

FIELDS = (
    "kind", "pe", "seq", "partner", "size", "stride", "send_flag",
    "recv_flag", "is_ack", "msg_id", "flag", "target", "group",
    "group_size", "work",
)
RANGE_FIELDS = (
    "raddr", "rchunk", "rcount", "rstep",
    "laddr", "lchunk", "lcount", "lstep",
)


def buffer_doc(trace: TraceBuffer) -> dict:
    """Everything a loaded buffer consists of."""
    assert trace.groups is not None
    return {
        "events": [[repr(ev) for ev in trace.events_for(pe)]
                   for pe in range(trace.num_pes)],
        "kinds": [type(ev.kind) for pe in range(trace.num_pes)
                  for ev in trace.events_for(pe)],
        "bools": [(type(ev.stride), type(ev.is_ack))
                  for pe in range(trace.num_pes)
                  for ev in trace.events_for(pe)],
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
    events = [ev for pe in range(n) for ev in trace.events_for(pe)]
    doc: dict = {
        "format": "ap1000-trace-v2",
        "num_pes": n,
        "groups": [list(trace.groups.members(g))
                   for g in range(len(trace.groups))],
        "phases": list(trace.phases),
        "counts": [len(trace.events_for(pe)) for pe in range(n)],
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
        map(_event_line, trace.all_events()))


def reference_stream_v1_text(trace: TraceBuffer,
                             events: list | None = None) -> str:
    """The stream-v1 file of ``trace`` as its live writer left it after
    emitting ``events`` (default: all, in ``seq`` order), the phases
    interned first: a header, a ``meta`` line per phase, the event
    lines and the footer."""
    assert trace.groups is not None
    events = trace.all_events() if events is None else events
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
            ev = TraceEvent(**kwargs)
            seq = ev.seq
            trace.record(ev)
            ev.seq = seq  # preserve the original global order
            idx += 1
    return trace


def reference_columns_from_buffer(trace: TraceBuffer) -> TraceColumns:
    """One list comprehension per field per PE, into preallocated
    arrays."""
    assert trace.groups is not None
    n = trace.num_pes
    counts = [len(trace.events_for(pe)) for pe in range(n)]
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
        events = trace.events_for(pe)
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
        buf.record(ev)
    for ev in events:  # a loaded trace keeps the file's seq, whatever it is
        ev.seq = (ev.seq * 7) % len(events) + 100
    return buf
