"""Trace serialization.

Three on-disk formats share one loader:

* **v1** — JSON lines: one header object (machine size, groups) followed
  by one object per event in global order.  Human-greppable, kept for
  back-compat and for small diagnostic dumps.
* **v2** — one columnar JSON object: the same header fields plus per-PE
  event ``counts`` and a ``columns`` table (one list per event field,
  events stored per-PE contiguous).  This is the cache format written by
  the benchmark runner: :func:`load_trace_columns` turns it into the
  structure-of-arrays layout the vectorized MLSim engine consumes
  without materializing a single :class:`TraceEvent`, so a trace is
  decoded once per application instead of once per (app, preset) cell.
  Both directions move whole columns: the writer dumps
  :func:`repro.trace.soa.event_lists` (one walk, shared with the npz
  sidecar), and :func:`load_trace` builds every event with one ``map``
  over the file's columns, refusing a document that does not describe
  one buffer.  v1 and stream files are line formats and load line by
  line.
* **stream** — v1-style event lines written *incrementally* while the
  run executes (:class:`StreamTraceWriter`): a minimal header, chunked
  line flushes at record boundaries, interleaved phase meta lines, and
  a v2-compatible footer (groups, phases, per-PE counts) appended at
  close.  The file is readable mid-run — ``repro top --follow`` tails
  it live — and loads like any other trace once the footer lands.

The formats exist so a long functional run can be recorded once and
replayed through MLSim many times with different parameter files — the
same decoupling the paper's methodology relied on.  ``load_trace`` and
``load_trace_columns`` sniff the format from the first line, so readers
never need to know which writer produced a file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO

import numpy as np

from repro.core.errors import SimulationError
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, GroupTable, TraceEvent
from repro.trace.soa import (
    EVENT_FIELDS,
    RANGE_FIELDS,
    TraceColumns,
    coalesce_columns,
    columns_from_buffer,
    columns_from_lists,
    event_lists,
)

FORMAT_V1 = "ap1000-trace-v1"
FORMAT_V2 = "ap1000-trace-v2"
FORMAT_STREAM = "ap1000-trace-stream-v1"

#: EventKind by value, for the v2 loader's ``kind`` column.
_KIND_OF = {int(kind): kind for kind in EventKind}


def _event_to_dict(ev: TraceEvent) -> dict:
    out: dict[str, object] = {}
    for name in EVENT_FIELDS:
        value = getattr(ev, name)
        if name == "kind":
            value = int(value)
        out[name] = value
    if ev.is_annotated():
        for name in RANGE_FIELDS:
            out[name] = getattr(ev, name)
    return out


def _event_from_dict(obj: dict) -> TraceEvent:
    kwargs = dict(obj)
    kwargs["kind"] = EventKind(kwargs["kind"])
    return TraceEvent(**kwargs)


def save_trace(trace: TraceBuffer, target: str | Path | IO[str]) -> None:
    """Write a trace as JSON lines (format v1)."""
    assert trace.groups is not None
    header = {
        "format": FORMAT_V1,
        "num_pes": trace.num_pes,
        "groups": {str(gid): list(trace.groups.members(gid))
                   for gid in range(len(trace.groups))},
    }
    if trace.phases:
        # Phase labels are optional so unannotated traces keep the
        # original header shape.
        header["phases"] = list(trace.phases)

    def _write(fh: IO[str]) -> None:
        fh.write(json.dumps(header) + "\n")
        for ev in trace.all_events():
            fh.write(json.dumps(_event_to_dict(ev)) + "\n")

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write(fh)
    else:
        _write(target)


def save_trace_v2(trace: TraceBuffer, target: str | Path | IO[str]) -> None:
    """Write a trace as one columnar JSON object (format v2).

    Events are stored per-PE contiguous (each PE's program order), with
    the machine-global ``seq`` column preserving the total order v1
    lines carried implicitly.  Groups are written as a list in group-id
    order and phases in phase-id order, so the tables round-trip with
    deterministic interning no matter which process wrote the file.
    Sanitizer byte ranges are emitted as full-length columns only when
    at least one event carries an annotation.
    """
    assert trace.groups is not None
    n = trace.num_pes
    lists = event_lists(trace)
    doc: dict[str, object] = {
        "format": FORMAT_V2,
        "num_pes": n,
        "groups": [list(trace.groups.members(gid))
                   for gid in range(len(trace.groups))],
        "phases": list(trace.phases),
        "counts": [len(trace.events_for(pe)) for pe in range(n)],
        "columns": {name: lists[name] for name in EVENT_FIELDS},
    }
    if RANGE_FIELDS[0] in lists:
        doc["ranges"] = {name: lists[name] for name in RANGE_FIELDS}
    line = json.dumps(doc, separators=(",", ":")) + "\n"
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(line)
    else:
        target.write(line)


class StreamTraceWriter:
    """Incremental, bounded-memory trace writer (the stream format).

    Registered as the ambient sink via
    :func:`repro.trace.buffer.streaming_to`; the first
    :class:`TraceBuffer` created inside the context binds to it and
    every recorded event is appended to the file as it happens, in
    chunks of ``flush_events`` complete lines (so a concurrent reader
    never sees a torn record from a live writer).  Memory held is one
    pending chunk plus per-PE counters — independent of trace length.

    ``close`` appends the v2-compatible footer (groups, phases, per-PE
    counts, total) that lets :func:`load_trace` rebuild the exact
    buffer; a file without a footer (run still going, or killed) is
    still tailable by ``repro top --follow`` and loadable best-effort.
    """

    def __init__(self, target: str | Path, *,
                 flush_events: int = 1024) -> None:
        self.path = Path(target)
        self.flush_events = max(1, flush_events)
        self._fh: IO[str] | None = None
        self._buffer: TraceBuffer | None = None
        self._pending: list[str] = []
        self._counts: list[int] = []
        self._total = 0
        self._closed = False

    @property
    def bound(self) -> bool:
        return self._buffer is not None

    @property
    def total_events(self) -> int:
        return self._total

    def bind(self, buffer: TraceBuffer) -> bool:
        """Attach to the first buffer created in the streaming context;
        refuses (returns False) once bound or closed."""
        if self._buffer is not None or self._closed:
            return False
        self._buffer = buffer
        self._fh = open(self.path, "w", encoding="utf-8")
        header = {"format": FORMAT_STREAM, "num_pes": buffer.num_pes}
        self._fh.write(json.dumps(header) + "\n")
        self._fh.flush()
        self._counts = [0] * buffer.num_pes
        return True

    def emit(self, event: TraceEvent) -> None:
        self._pending.append(json.dumps(_event_to_dict(event)))
        self._counts[event.pe] += 1
        self._total += 1
        if len(self._pending) >= self.flush_events:
            self.flush()

    def phase(self, label: str, pid: int) -> None:
        self._pending.append(
            json.dumps({"meta": "phase", "label": label, "id": pid}))
        if len(self._pending) >= self.flush_events:
            self.flush()

    def flush(self) -> None:
        """Push pending complete lines to disk."""
        if self._fh is not None and self._pending:
            self._fh.write("\n".join(self._pending) + "\n")
            self._pending.clear()
            self._fh.flush()

    def close(self) -> None:
        """Flush, append the footer, and release the file."""
        if self._closed:
            return
        self._closed = True
        if self._fh is None:
            return
        self.flush()
        buffer = self._buffer
        assert buffer is not None and buffer.groups is not None
        footer = {
            "footer": FORMAT_STREAM,
            "groups": [list(buffer.groups.members(gid))
                       for gid in range(len(buffer.groups))],
            "phases": list(buffer.phases),
            "counts": self._counts,
            "total_events": self._total,
        }
        self._fh.write(json.dumps(footer) + "\n")
        self._fh.close()
        self._fh = None

    def __enter__(self) -> StreamTraceWriter:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def ensure_intact(path: str | Path) -> None:
    """Refuse a torn trace file before parsing it.

    A process killed mid-``write`` leaves an empty file or a partial
    last line; both read as damage, not as a trace.  Raises
    :class:`SimulationError` (a :class:`ReproError`, so the CLI prints
    one clean message) — the bench cache uses the same check to decide
    what to quarantine.
    """
    p = Path(path)
    try:
        if p.stat().st_size == 0:
            raise SimulationError(f"trace file {p} is empty")
        with p.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                raise SimulationError(
                    f"trace file {p} is truncated (missing trailing "
                    "newline; was the writer killed mid-record?)")
    except OSError as exc:
        raise SimulationError(f"cannot read trace file {p}: {exc}"
                              ) from exc


def _buffer_from_stream(header: dict, fh: IO[str],
                        source: str = "<stream>") -> TraceBuffer:
    """Rebuild a TraceBuffer from a stream-format file.

    A footer, when present, restores the group table exactly; a
    footer-less file (live or killed writer) loads best-effort with
    only the implicit all-cells group.
    """
    num_pes = header["num_pes"]
    trace = TraceBuffer(num_pes=num_pes, capacity=1 << 62,
                        attach_sink=False)
    assert trace.groups is not None
    footer: dict | None = None
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SimulationError(
                f"{source}:{lineno}: corrupt trace line: {exc.msg}"
            ) from exc
        if "footer" in obj:
            footer = obj
            break
        if obj.get("meta") == "phase":
            pid = trace.phase_id(obj["label"])
            if pid != obj["id"]:
                raise SimulationError(
                    f"{source}:{lineno}: phase id mismatch "
                    f"({pid} != {obj['id']})")
            continue
        ev = _event_from_dict(obj)
        seq = ev.seq
        trace.record(ev)
        ev.seq = seq  # preserve the original global order
    if footer is not None:
        for members in footer.get("groups", [])[1:]:
            trace.groups.intern(tuple(members))
        total = footer.get("total_events")
        if total is not None and total != trace.total_events:
            raise SimulationError(
                f"{source}: footer promises {total} events but the "
                f"stream holds {trace.total_events}")
    return trace


def _buffer_from_v1(header: dict, fh: IO[str]) -> TraceBuffer:
    """Rebuild a TraceBuffer from a v1 stream positioned after the
    header line."""
    num_pes = header["num_pes"]
    groups = GroupTable(tuple(range(num_pes)))
    for gid_str, members in sorted(
            header["groups"].items(), key=lambda kv: int(kv[0])):
        if int(gid_str) == 0:
            continue
        groups.intern(tuple(members))
    trace = TraceBuffer(num_pes=num_pes, capacity=1 << 62, groups=groups,
                        attach_sink=False)
    for label in header.get("phases", []):
        trace.phase_id(label)
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            ev = _event_from_dict(json.loads(line))
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise SimulationError(
                f"corrupt trace line {lineno}: {exc}") from exc
        seq = ev.seq
        trace.record(ev)
        ev.seq = seq  # preserve the original global order
    return trace


def _malformed(source: str, why: str) -> SimulationError:
    return SimulationError(f"{source}: malformed v2 trace: {why}")


def _buffer_from_v2(doc: dict, source: str) -> TraceBuffer:
    """Rebuild a full TraceBuffer (event objects included) from a v2
    columnar document: one ``map`` over the columns (they are in
    :class:`TraceEvent`'s positional order), sliced per PE by
    ``counts``.  Refused: columns of unequal length, ``counts`` that do
    not cover them or do not match ``num_pes``, a ``pe`` column that
    disagrees with ``counts``, a ``kind`` outside :class:`EventKind`.
    """
    try:
        num_pes = doc["num_pes"]
        counts = doc["counts"]
        columns = [doc["columns"][name] for name in EVENT_FIELDS]
        if "ranges" in doc:
            columns += [doc["ranges"][name] for name in RANGE_FIELDS]
        groups = GroupTable(tuple(range(num_pes)))
        for members in doc["groups"][1:]:  # gid 0 is always "all cells"
            groups.intern(tuple(members))
    except (KeyError, TypeError) as exc:
        raise _malformed(source, f"bad or missing field {exc}") from exc
    try:
        kinds = list(map(_KIND_OF.__getitem__, columns[0]))
    except (KeyError, TypeError) as exc:
        raise _malformed(source, f"kind {exc} is not an EventKind") from exc
    total = len(kinds)
    if any(len(column) != total for column in columns):
        raise _malformed(source, "columns differ in length")
    if len(counts) != num_pes or sum(counts) != total:
        raise _malformed(
            source, f"counts {counts} do not cover {total} events on "
            f"{num_pes} PEs")
    trace = TraceBuffer(num_pes=num_pes, capacity=1 << 62, groups=groups,
                        attach_sink=False)
    for label in doc.get("phases", []):
        trace.phase_id(label)
    events = list(map(TraceEvent, kinds, *columns[1:]))
    pes = columns[1]
    lo = 0
    for pe, count in enumerate(counts):
        hi = lo + count
        if pes[lo:hi] != [pe] * count:
            raise _malformed(
                source, f"pe column disagrees with counts at PE {pe}")
        trace._events[pe] = events[lo:hi]
        lo = hi
    trace.total_events = trace._seq = total
    return trace


#: Column order of the npz sidecar (everything TraceColumns carries).
_NPZ_ARRAYS = (
    "starts", "kind", "partner", "size", "send_flag", "recv_flag",
    "msg_id", "flag", "target", "group", "group_size", "work",
    "group_sizes",
)


def save_columns_npz(trace: TraceBuffer, target: str | Path) -> None:
    """Write the trace's replay columns as a binary numpy archive.

    This is a decode *accelerator*, not a trace format: it carries only
    the timing-relevant columns (no seq, no sanitizer ranges), with the
    effective group size already resolved, so the replay stage can map
    it straight into :class:`TraceColumns` without touching JSON.  The
    v2 JSON file stays the source of truth beside it (and, written
    first, leaves its lists on the buffer: no second walk here).
    """
    columns = columns_from_buffer(trace)
    arrays = {name: getattr(columns, name) for name in _NPZ_ARRAYS
              if name != "group_sizes"}
    arrays["group_sizes"] = np.asarray(columns.group_sizes, dtype=np.int64)
    np.savez(target, **arrays)


def load_columns_npz(source: str | Path, *,
                     coalesce: bool = True) -> TraceColumns:
    """Read columns written by :func:`save_columns_npz`."""
    with np.load(source) as data:
        arrays = {name: data[name] for name in _NPZ_ARRAYS}
    group_sizes = tuple(int(s) for s in arrays.pop("group_sizes"))
    starts = arrays.pop("starts")
    columns = TraceColumns(num_pes=len(starts) - 1, starts=starts,
                           group_sizes=group_sizes, **arrays)
    return coalesce_columns(columns) if coalesce else columns


def _sniff_header(fh: IO[str], source: str = "<trace>") -> dict:
    header_line = fh.readline()
    if not header_line:
        raise SimulationError(f"trace file {source} is empty")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise SimulationError(
            f"{source} is not a trace file (corrupt header: {exc.msg})"
        ) from exc
    if not isinstance(header, dict) or header.get("format") not in (
            FORMAT_V1, FORMAT_V2, FORMAT_STREAM):
        fmt = header.get("format") if isinstance(header, dict) else None
        raise SimulationError(f"unrecognized trace format {fmt!r}")
    return header


def load_trace(source: str | Path | IO[str]) -> TraceBuffer:
    """Read a trace written by :func:`save_trace`,
    :func:`save_trace_v2`, or :class:`StreamTraceWriter` (the format is
    sniffed from the first line).  File paths are integrity-checked
    first, so a torn file raises a clean :class:`SimulationError`
    instead of a parser traceback."""

    def _read(fh: IO[str], name: str) -> TraceBuffer:
        header = _sniff_header(fh, name)
        if header["format"] == FORMAT_V2:
            return _buffer_from_v2(header, name)
        if header["format"] == FORMAT_STREAM:
            return _buffer_from_stream(header, fh, name)
        return _buffer_from_v1(header, fh)

    if isinstance(source, (str, Path)):
        ensure_intact(source)
        with open(source, encoding="utf-8") as fh:
            return _read(fh, str(source))
    return _read(source, "<stream>")


def load_trace_columns(
    source: str | Path | IO[str], *, coalesce: bool = True,
) -> TraceColumns:
    """Read a trace file straight into :class:`TraceColumns`.

    On a v2 file this is the replay fast path: each column deserializes
    as one JSON list and lands in one numpy array, with the effective
    group size resolved vectorially from the group table.  v1 files fall
    back through :func:`load_trace` + :func:`columns_from_buffer`.  With
    ``coalesce`` (the default) adjacent COMPUTE/RTSYS events are merged
    exactly as :meth:`TraceBuffer.coalesce_compute` would, so replaying
    from columns matches replaying from a coalesced buffer bit for bit.
    """

    def _read(fh: IO[str], name: str) -> TraceColumns:
        header = _sniff_header(fh, name)
        if header["format"] == FORMAT_V2:
            columns = columns_from_lists(
                header["num_pes"], header["counts"], header["columns"],
                tuple(len(members) for members in header["groups"]))
        elif header["format"] == FORMAT_STREAM:
            columns = columns_from_buffer(
                _buffer_from_stream(header, fh, name))
        else:
            columns = columns_from_buffer(_buffer_from_v1(header, fh))
        return coalesce_columns(columns) if coalesce else columns

    if isinstance(source, (str, Path)):
        ensure_intact(source)
        with open(source, encoding="utf-8") as fh:
            return _read(fh, str(source))
    return _read(source, "<stream>")
