"""Trace serialization.

Three on-disk formats share one loader:

* **v1** — JSON lines: one header object (machine size, groups) followed
  by one object per event in global order.  Human-greppable, kept for
  back-compat and for small diagnostic dumps.
* **v2** — the trace's columns as they sit in memory: one JSON header
  line (machine size, groups, phases, per-PE ``counts``, ``total`` and
  the ``block`` layout as ``[name, dtype]`` pairs, dtypes explicit
  little-endian), the raw column block (every :data:`EVENT_FIELDS`
  column, plus :data:`RANGE_FIELDS` when any event is annotated, each
  ``total`` items, events per-PE contiguous) and a closing newline, so
  :func:`ensure_intact` is the torn-file test of every format.  The
  bench cache stores this and :func:`save_trace_v2` writes nothing
  else.  :func:`load_trace` maps the block with ``np.frombuffer``,
  checks it vectorially and returns a :class:`TraceBuffer` that builds
  events only for whoever asks; replay (:func:`load_trace_columns`) and
  a second save use the arrays as they are.  The older encoding — the
  same header, columns as JSON lists under ``"columns"`` / ``"ranges"``
  — is still read, through the same checks, and written by nothing.
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
from repro.trace.buffer import EVENT_FIELDS, RANGE_FIELDS, TraceBuffer
from repro.trace.events import EventKind, GroupTable, TraceEvent
from repro.trace.soa import (
    FIELD_DTYPES,
    TraceColumns,
    coalesce_columns,
    columns_from_buffer,
    event_block,
    pack,
)

FORMAT_V1 = "ap1000-trace-v1"
FORMAT_V2 = "ap1000-trace-v2"
FORMAT_STREAM = "ap1000-trace-stream-v1"


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


def save_trace_v2(trace: TraceBuffer, target: str | Path) -> None:
    """Write a trace as its column block (format v2).

    Events are stored per-PE contiguous (each PE's program order), with
    the machine-global ``seq`` column preserving the total order v1
    lines carried implicitly.  Groups are written as a list in group-id
    order and phases in phase-id order, so the tables round-trip with
    deterministic interning no matter which process wrote the file.
    The block is :func:`repro.trace.soa.event_block` byte for byte: a
    loaded trace is written from the arrays it was mapped to, a
    recorded one pays its one walk here.
    """
    assert trace.groups is not None
    n = trace.num_pes
    block = event_block(trace)
    header = {
        "format": FORMAT_V2,
        "num_pes": n,
        "groups": [list(trace.groups.members(gid))
                   for gid in range(len(trace.groups))],
        "phases": list(trace.phases),
        "counts": np.bincount(block["pe"], minlength=n).tolist(),
        "total": trace.total_events,
        "block": [[name, column.dtype.str]
                  for name, column in block.items()],
    }
    Path(target).write_bytes(b"".join([
        json.dumps(header, separators=(",", ":")).encode(), b"\n",
        *block.values(), b"\n"]))


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


def _map_block(layout: list, total: int, body: bytes | str,
               source: str) -> dict[str, np.ndarray]:
    """A v2 block's columns as read-only views of ``body`` (all that
    follows the header line).  Refused: a dtype the field cannot have, a
    block shorter than its layout, anything but a newline after it."""
    if not isinstance(body, bytes):
        raise _malformed(source, "a column block needs a binary stream")
    block, offset = {}, 0
    for name, code in layout:
        dtype = np.dtype(code)
        if dtype not in FIELD_DTYPES[name]:
            raise _malformed(source, f"column {name} stored as {code!r}")
        end = offset + total * dtype.itemsize
        if end > len(body):
            raise _malformed(
                source, f"block is short: column {name} ends at byte "
                f"{end} of {len(body)}")
        block[name] = np.frombuffer(body, dtype, total, offset)
        offset = end
    if body[offset:] != b"\n":
        raise _malformed(
            source, f"{len(body) - offset} bytes after the block where "
            "its closing newline belongs")
    return block


def _buffer_from_v2(header: dict, fh: IO, source: str) -> TraceBuffer:
    """A v2 file as a block-backed :class:`TraceBuffer`; the JSON lists
    older caches wrote become arrays and pass the same checks.  Refused:
    a missing column, columns of unequal length, ``counts`` that do not
    cover them or do not match ``num_pes``, a ``pe`` column that
    disagrees with ``counts``, a ``kind`` outside :class:`EventKind`."""
    try:
        num_pes = header["num_pes"]
        counts = header["counts"]
        groups = GroupTable(tuple(range(num_pes)))
        for members in header["groups"][1:]:  # gid 0 is always "all cells"
            groups.intern(tuple(members))
        if "block" in header:
            block = _map_block(header["block"], header["total"],
                               fh.read(), source)
        else:
            block = {name: pack(name, values) for name, values in (
                header["columns"] | header.get("ranges", {})).items()}
        names = EVENT_FIELDS + RANGE_FIELDS * any(
            name in block for name in RANGE_FIELDS)
        block = {name: block[name] for name in names}
        expected_pe = np.repeat(np.arange(len(counts)), counts)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _malformed(source, f"bad or missing field: {exc!r}") from exc
    total = len(block["kind"])
    if any(len(column) != total for column in block.values()):
        raise _malformed(source, "columns differ in length")
    if len(counts) != num_pes or len(expected_pe) != total:
        raise _malformed(
            source, f"counts {counts} do not cover {total} events on "
            f"{num_pes} PEs")
    if not np.array_equal(block["pe"], expected_pe):
        raise _malformed(source, "pe column disagrees with counts")
    if total and not (0 <= block["kind"].min()
                      and block["kind"].max() < len(EventKind)):
        raise _malformed(source, "a kind is not an EventKind")
    return TraceBuffer.from_block(num_pes, groups,
                                  header.get("phases", []), block)


def save_columns_npz(trace: TraceBuffer, target: str | Path) -> None:
    """Write the trace's replay columns as a numpy archive.  Unused by
    ``repro``: the v2 file *is* those columns and the cache sidecar this
    wrote is gone.  It stays, callable as ``(trace, path)``, only
    because ``benchmarks/e2e/child.py`` times it inside ``trace.save``;
    the next ``[benchmark]`` PR can drop both."""
    columns = columns_from_buffer(trace)
    np.savez(target, **{name: getattr(columns, name)
                        for name in TraceColumns.__dataclass_fields__})


def _sniff_header(fh: IO, source: str = "<trace>") -> dict:
    header_line = fh.readline()
    if not header_line:
        raise SimulationError(f"trace file {source} is empty")
    try:
        header = json.loads(header_line)
    except ValueError as exc:       # bad JSON, or bytes that are no text
        raise SimulationError(
            f"{source} is not a trace file (corrupt header: {exc})"
        ) from exc
    if not isinstance(header, dict) or header.get("format") not in (
            FORMAT_V1, FORMAT_V2, FORMAT_STREAM):
        fmt = header.get("format") if isinstance(header, dict) else None
        raise SimulationError(f"unrecognized trace format {fmt!r}")
    return header


def load_trace(source: str | Path | IO) -> TraceBuffer:
    """Read a trace written by :func:`save_trace`,
    :func:`save_trace_v2`, or :class:`StreamTraceWriter` (the format is
    sniffed from the first line; a v2 block needs a path or a binary
    stream).  File paths are integrity-checked first, so a torn file
    raises a clean :class:`SimulationError` instead of a parser
    traceback."""

    def _read(fh: IO, name: str) -> TraceBuffer:
        header = _sniff_header(fh, name)
        if header["format"] == FORMAT_V2:
            return _buffer_from_v2(header, fh, name)
        if header["format"] == FORMAT_STREAM:
            return _buffer_from_stream(header, fh, name)
        return _buffer_from_v1(header, fh)

    if isinstance(source, (str, Path)):
        ensure_intact(source)
        with open(source, "rb") as fh:
            return _read(fh, str(source))
    return _read(source, "<stream>")


def load_trace_columns(
    source: str | Path | IO, *, coalesce: bool = True,
) -> TraceColumns:
    """Read a trace file straight into :class:`TraceColumns`.

    On a v2 file this is the replay fast path: the block is mapped,
    checked and widened, and no :class:`TraceEvent` is built; v1 and
    stream files pay their events and one walk.  With ``coalesce`` (the
    default) adjacent COMPUTE/RTSYS events are merged exactly as
    :meth:`TraceBuffer.coalesce_compute` would, so replaying from
    columns matches replaying from a coalesced buffer bit for bit.
    """
    columns = columns_from_buffer(load_trace(source))
    return coalesce_columns(columns) if coalesce else columns
