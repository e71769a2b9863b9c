"""Trace serialization: one writer, two read-only line formats.

* **v2** (:func:`save_trace`, the only writer) — the trace's columns as
  they sit in memory: one JSON header line (machine size, groups,
  phases, per-PE ``counts``, ``total`` and the ``block`` layout as
  ``[name, dtype]`` pairs, dtypes explicit little-endian), the raw
  column block (every :data:`EVENT_FIELDS` column, plus
  :data:`RANGE_FIELDS` when any event is annotated, each ``total``
  items, events per-PE contiguous) and a closing newline, so
  :func:`ensure_intact` is the torn-file test of every format.
  :func:`load_trace` maps the block with ``np.frombuffer``, checks it
  vectorially and returns a :class:`TraceBuffer` over those arrays.
* **stream** (:class:`StreamTraceWriter`) — the same layout appended
  while the run executes: a header line, one chunk per flush (a JSON
  line with the chunk's ``total``, the phase labels interned since the
  last chunk and its ``block`` layout; the block; a newline) and at
  close a footer with groups, phases, per-PE counts and total.
  ``repro top --follow`` tails it chunk by chunk; the loader maps the
  chunks, puts their events in PE order and packs them again, so the
  file loads, and re-saves, as the v2 file of its run.
* **v1** and **stream-v1** — one JSON object per event; imported by
  :func:`_buffer_from_lines`, written by nothing (nor is the v2 header
  with its columns as JSON lists that older caches hold).

Every reader ends in the checks of :func:`_checked` and a block-backed
buffer, and ``load_trace`` sniffs the format from the first line: a run
is recorded once and replayed through MLSim under many parameter files,
the decoupling the paper's methodology relied on.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from pathlib import Path
from typing import IO

import numpy as np

from repro.core.errors import SimulationError
from repro.trace.buffer import (
    EVENT_FIELDS,
    FIELD_DTYPES,
    RANGE_FIELDS,
    ROW,
    UNANNOTATED,
    TraceBuffer,
    block_of,
    pack,
)
from repro.trace.events import EventKind, GroupTable
from repro.trace.soa import TraceColumns, coalesce_columns, columns_from_buffer

FORMAT_V2 = "ap1000-trace-v2"
FORMAT_STREAM = "ap1000-trace-stream-v2"

_FIELDS = EVENT_FIELDS + RANGE_FIELDS


def _json_line(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"


def _with_block(doc: dict, block: dict[str, np.ndarray]) -> bytes:
    """``doc`` and ``block``'s layout as one JSON line, the block and
    the newline that closes it."""
    layout = [[name, column.dtype.str] for name, column in block.items()]
    return b"".join([_json_line(doc | {"block": layout}),
                     *block.values(), b"\n"])


def _group_lists(trace: TraceBuffer) -> list[list[int]]:
    assert trace.groups is not None
    return [list(trace.groups.members(gid))
            for gid in range(len(trace.groups))]


def save_trace(trace: TraceBuffer, target: str | Path | IO[bytes]) -> None:
    """Write a trace as its column block (format v2) to a path or a
    binary file object.

    Events are stored per-PE contiguous (each PE's program order), with
    the machine-global ``seq`` column preserving the total order.
    Groups are written as a list in group-id order and phases in
    phase-id order, so the tables round-trip with deterministic
    interning no matter which process wrote the file.  The block is
    :meth:`TraceBuffer.block` byte for byte: a loaded trace is written
    from the arrays it was mapped to, a recorded one packs its rows
    here.
    """
    n = trace.num_pes
    block = trace.block()
    data = _with_block({
        "format": FORMAT_V2,
        "num_pes": n,
        "groups": _group_lists(trace),
        "phases": list(trace.phases),
        "counts": np.bincount(block["pe"], minlength=n).tolist(),
        "total": trace.total_events,
    }, block)
    if isinstance(target, (str, Path)):
        Path(target).write_bytes(data)
    else:
        target.write(data)


#: The writer under the name ``benchmarks/e2e/child.py`` times it by.
save_trace_v2 = save_trace


class StreamTraceWriter:
    """Incremental, bounded-memory trace writer (the stream format).

    Registered as the ambient sink via
    :func:`repro.trace.buffer.streaming_to`, it binds to the first
    :class:`TraceBuffer` created inside the context and keeps each row
    the buffer appends (a later rewrite such as
    :meth:`TraceBuffer.coalesce_compute` does not reach the file).
    Every ``flush_events`` events are written as one whole
    chunk, so memory held is one pending chunk plus per-PE counters.
    ``close`` appends the footer that lets :func:`load_trace` rebuild
    the exact buffer; a file without one (run still going, or killed)
    is still tailable by ``repro top --follow`` and loadable.
    """

    def __init__(self, target: str | Path, *,
                 flush_events: int = 1024) -> None:
        self.path = Path(target)
        self.flush_events = max(1, flush_events)
        self._fh: IO[bytes] | None = None
        self._buffer: TraceBuffer | None = None
        self._rows: list[tuple] = []
        self._phases: list[str] = []
        self._counts: list[int] = []
        self._closed = False

    def bind(self, buffer: TraceBuffer) -> bool:
        """Attach to the first buffer created in the streaming context;
        refuses (returns False) once bound or closed."""
        if self._buffer is not None or self._closed:
            return False
        self._buffer = buffer
        self._fh = open(self.path, "wb")
        self._fh.write(_json_line(
            {"format": FORMAT_STREAM, "num_pes": buffer.num_pes}))
        self._fh.flush()
        self._counts = [0] * buffer.num_pes
        return True

    def emit(self, row: tuple) -> None:
        self._rows.append(row)
        self._counts[row[1]] += 1
        if len(self._rows) >= self.flush_events:
            self.flush()

    def phase(self, label: str, pid: int) -> None:
        self._phases.append(label)

    def flush(self) -> None:
        """Write the pending events and phase labels as one chunk."""
        if self._fh is None or not (self._rows or self._phases):
            return
        rows = self._rows
        if any(len(row) > ROW for row in rows):     # a stamped row
            rows = [row + UNANNOTATED * (len(row) == ROW) for row in rows]
        block = {name: pack(name, values) for name, values
                 in zip(_FIELDS, list(zip(*rows)) or [()] * ROW)}
        self._fh.write(_with_block(
            {"total": len(rows), "phases": self._phases}, block))
        self._fh.flush()
        self._rows, self._phases = [], []

    def close(self) -> None:
        """Flush, append the footer, and release the file."""
        if self._closed:
            return
        self._closed = True
        if self._fh is None:
            return
        self.flush()
        buffer = self._buffer
        assert buffer is not None
        self._fh.write(_json_line({
            "footer": FORMAT_STREAM,
            "groups": _group_lists(buffer),
            "phases": list(buffer.phases),
            "counts": self._counts,
            "total_events": sum(self._counts),
        }))
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


def _malformed(source: str, why: str) -> SimulationError:
    return SimulationError(f"{source}: malformed trace: {why}")


def _map_block(layout: list, total: int, body: bytes | str, source: str,
               at: int = 0) -> tuple[dict[str, np.ndarray], int]:
    """A block's columns as read-only views of ``body`` from byte
    ``at``, and the offset after the newline that closes it.  Refused:
    a dtype the field cannot have, a block shorter than its layout, no
    newline after it."""
    if not isinstance(body, bytes):
        raise _malformed(source, "a column block needs a binary stream")
    block = {}
    for name, code in layout:
        dtype = np.dtype(code)
        if dtype not in FIELD_DTYPES[name]:
            raise _malformed(source, f"column {name} stored as {code!r}")
        end = at + total * dtype.itemsize
        if end > len(body):
            raise _malformed(
                source, f"block is short: column {name} ends at byte "
                f"{end} of {len(body)}")
        block[name] = np.frombuffer(body, dtype, total, at)
        at = end
    if body[at:at + 1] != b"\n":
        raise _malformed(source, "no newline closes the block")
    return block, at + 1


def _checked(source: str, num_pes: int, groups: list, phases: list,
             counts: list | None, block: dict[str, np.ndarray]
             ) -> TraceBuffer:
    """``block`` as a block-backed :class:`TraceBuffer`, ``counts``
    derived from its ``pe`` column when the file has none.  Refused: a
    missing column, columns of unequal length, ``counts`` that do not
    cover them or do not match ``num_pes``, a ``pe`` column that
    disagrees with ``counts``, a ``kind`` outside :class:`EventKind`."""
    table = GroupTable(tuple(range(num_pes)))
    for members in groups[1:]:  # gid 0 is always "all cells"
        table.intern(tuple(members))
    names = EVENT_FIELDS + RANGE_FIELDS * any(
        name in block for name in RANGE_FIELDS)
    block = {name: block[name] for name in names}
    if counts is None:
        counts = np.bincount(block["pe"], minlength=num_pes).tolist()
    expected_pe = np.repeat(np.arange(len(counts)), counts)
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
    return TraceBuffer.from_block(num_pes, table, phases, block)


def _buffer_from_v2(header: dict, fh: IO, source: str) -> TraceBuffer:
    """A v2 file; the JSON lists older caches wrote become arrays and
    pass the same checks."""
    if "block" in header:
        body = fh.read()
        block, end = _map_block(header["block"], header["total"], body,
                                source)
        if end != len(body):
            raise _malformed(source, f"{len(body) - end} bytes after the "
                             "block's closing newline")
    else:
        block = {name: pack(name, values) for name, values in (
            header["columns"] | header.get("ranges", {})).items()}
    return _checked(source, header["num_pes"], header["groups"],
                    header.get("phases", []), header["counts"], block)


def _in_pe_order(source: str, num_pes: int, parts: list[dict],
                 groups: list, phases: list, footer: dict) -> TraceBuffer:
    """Events in record order — ``parts`` each hold every field's
    column, concatenated in order — as the buffer their v2 file loads
    to (:func:`repro.trace.buffer.block_of`, as a recorded buffer's).
    A footer's groups, phases and counts win over the caller's."""
    block = block_of({name: np.concatenate([
        np.empty(0, FIELD_DTYPES[name][-1]), *(part[name] for part in parts)])
        for name in _FIELDS})
    total = len(block["pe"])
    if footer.get("total_events", total) != total:
        raise _malformed(source, f"footer promises {footer['total_events']}"
                         f" events, the file holds {total}")
    return _checked(source, num_pes, footer.get("groups", groups),
                    footer.get("phases", phases), footer.get("counts"),
                    block)


def stream_records(data: bytes, source: str, at: int = 0
                   ) -> Iterator[tuple[dict, dict[str, np.ndarray] | None,
                                       int]]:
    """The complete records of a stream file from byte ``at`` of
    ``data``, each with the offset after it: each chunk's JSON line with
    its mapped block, the header's and the footer's with None.  The
    footer, or a record still being written, ends the walk."""
    while (end := data.find(b"\n", at)) >= 0:
        try:
            doc = json.loads(data[at:end])
            if "format" in doc or "footer" in doc:
                block, at = None, end + 1
            else:
                total, layout = doc["total"], doc["block"]
                if end + 2 + total * sum(
                        np.dtype(code).itemsize for _, code in layout
                ) > len(data):
                    return
                block, at = _map_block(layout, total, data, source,
                                       end + 1)
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(source, f"bad chunk at byte {at}: {exc!r}"
                             ) from exc
        yield doc, block, at
        if "footer" in doc:
            return


def _buffer_from_stream(header: dict, fh: IO, source: str) -> TraceBuffer:
    """A stream file, with or without its footer: the chunks in order,
    a chunk without range columns holding unannotated events."""
    data = fh.read()
    parts: list[dict[str, np.ndarray]] = []
    phases: list[str] = []
    footer: dict = {}
    at = 0
    for doc, block, at in stream_records(data, source):
        if block is None:   # the walk ends at the footer
            footer = doc
            continue
        if RANGE_FIELDS[0] not in block:
            block |= {name: np.full(doc["total"], default) for name, default
                      in zip(RANGE_FIELDS, UNANNOTATED)}
        parts.append(block)
        phases += doc.get("phases", [])
    if at != len(data):
        raise _malformed(source, f"{len(data) - at} bytes after the "
                         "last complete record")
    return _in_pe_order(source, header["num_pes"], parts, [], phases,
                        footer)


#: The line formats: imported here, written by nothing.
_LINE_FORMATS = ("ap1000-trace-v1", "ap1000-trace-stream-v1")


def _buffer_from_lines(header: dict, fh: IO, source: str) -> TraceBuffer:
    """A v1 or stream-v1 file: after the header, one JSON object per
    event in ``seq`` order (range fields only on annotated events) and,
    in a stream-v1 file, phase ``meta`` lines and a footer.  Groups and
    phases come from the header, the ``meta`` lines or the footer,
    whichever the file has."""
    groups = [members for _, members in sorted(
        header.get("groups", {}).items(), key=lambda kv: int(kv[0]))]
    phases = list(header.get("phases", []))
    rows: list[dict] = []
    footer: dict = {}
    for line in fh:
        if not line.strip():
            continue
        obj = json.loads(line)
        if "footer" in obj:
            footer = obj
            break
        if obj.get("meta") != "phase":
            rows.append(obj)
        elif obj["id"] == len(phases) + 1:
            phases.append(obj["label"])
        else:
            raise _malformed(source, f"phase id {obj['id']} where "
                             f"{len(phases) + 1} comes next")
    columns = {name: [row[name] for row in rows] for name in EVENT_FIELDS}
    columns |= {name: [row.get(name, default) for row in rows]
                for name, default in zip(RANGE_FIELDS, UNANNOTATED)}
    return _in_pe_order(source, header["num_pes"], [columns], groups,
                        phases, footer)


def save_columns_npz(trace: TraceBuffer, target: str | Path) -> None:
    """Write the trace's replay columns as a numpy archive.  Unused by
    ``repro`` (the v2 file *is* those columns); it stays only because
    ``benchmarks/e2e/child.py`` times it inside ``trace.save``."""
    columns = columns_from_buffer(trace)
    np.savez(target, **{name: getattr(columns, name)
                        for name in TraceColumns.__dataclass_fields__})


_READERS = {FORMAT_V2: _buffer_from_v2, FORMAT_STREAM: _buffer_from_stream,
            **dict.fromkeys(_LINE_FORMATS, _buffer_from_lines)}


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
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt not in _READERS:
        raise SimulationError(f"unrecognized trace format {fmt!r}")
    return header


def load_trace(source: str | Path | IO) -> TraceBuffer:
    """Read a trace of any format (sniffed from the first line; a
    column block needs a path or a binary stream).  File paths are
    integrity-checked first, so a torn file raises a clean
    :class:`SimulationError` instead of a parser traceback."""

    def _read(fh: IO, name: str) -> TraceBuffer:
        header = _sniff_header(fh, name)
        try:
            return _READERS[header["format"]](header, fh, name)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # A field missing, of the wrong type or out of range.
            raise _malformed(name, f"bad or missing field: {exc!r}"
                             ) from exc

    if isinstance(source, (str, Path)):
        ensure_intact(source)
        with open(source, "rb") as fh:
            return _read(fh, str(source))
    return _read(source, "<stream>")


def load_trace_columns(
    source: str | Path | IO, *, coalesce: bool = True,
) -> TraceColumns:
    """Read a trace file straight into :class:`TraceColumns`.

    Every format is mapped, checked and widened with no
    :class:`TraceEvent` built.  With ``coalesce`` (the default) adjacent
    COMPUTE/RTSYS events are merged exactly as
    :meth:`TraceBuffer.coalesce_compute` would, so replaying from
    columns matches replaying from a coalesced buffer bit for bit.
    """
    columns = columns_from_buffer(load_trace(source))
    return coalesce_columns(columns) if coalesce else columns
