"""Chrome trace-event / Perfetto export of an MLSim replay.

The exported document follows the Chrome trace-event JSON format, which
the Perfetto UI (https://ui.perfetto.dev) opens directly:

* one thread track per PE with ``X`` (complete) events for every
  execution / rtsys / overhead / idle span — the exact Section 5.3
  buckets, as span categories;
* ``s``/``f`` flow pairs for every PUT / GET / GET-reply / SEND packet,
  drawn from the source PE's injection to the destination's arrival
  (perfetto format only);
* ``i`` (instant) events for RETRY / TIMEOUT / SPILL robustness markers
  and for user ``ctx.phase(...)`` labels (perfetto format only).

Exports are *byte-deterministic*: timestamps are rounded to nanosecond
precision (3 decimal µs digits), keys are sorted, and separators are
compact, so two replays of the same trace under the same parameters
serialize identically — the property CI's golden-fixture step enforces.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

from repro.core.errors import ConfigurationError
from repro.mlsim.breakdown import MLSimResult
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import MLSimParams
from repro.mlsim.timeline import Timeline
from repro.trace.buffer import TraceBuffer
from repro.trace.soa import coalesce_columns, columns_from_buffer

#: Formats accepted by :func:`export_trace` / ``repro trace export``.
FORMATS = ("perfetto", "chrome")


def _ts(value: float) -> float:
    """Round a microsecond timestamp for stable serialization."""
    return round(value, 3)


def replay_with_timeline(trace: TraceBuffer,
                         params: MLSimParams) -> MLSimResult:
    """Replay recording timeline and metrics; see ``result.timeline``.

    The buffer is decoded and coalesced as columns and left as it was:
    a loaded one builds no :class:`TraceEvent` on the way.
    """
    columns = coalesce_columns(columns_from_buffer(trace))
    return replay_columns(columns, params, record_timeline=True,
                          collect_metrics=True)


def _metadata_events(num_pes: int, model: str) -> list[dict]:
    events: list[dict] = [{
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
        "args": {"name": f"MLSim replay ({model})"},
    }]
    for pe in range(num_pes):
        events.append({
            "ph": "M", "name": "thread_name", "pid": 0, "tid": pe,
            "args": {"name": f"PE {pe}"},
        })
    return events


def _iter_span_events(timeline: Timeline) -> Iterator[dict]:
    for pe in range(timeline.num_pes):
        for start, end, bucket, label in timeline.span_rows(pe):
            yield {
                "ph": "X", "name": label, "cat": bucket,
                "pid": 0, "tid": pe,
                "ts": _ts(start), "dur": _ts(end - start),
            }


def _iter_flow_events(timeline: Timeline) -> Iterator[dict]:
    # The flow id is the *global* index into the timeline's flows, never
    # a per-document counter, so a packet whose `s`/`f` halves land in
    # different chunks of a chunked export still pairs up in Perfetto.
    for i, (src, depart, dst, arrival, kind, size) in enumerate(
            timeline.flow_rows()):
        name = f"{kind} {size}B"
        yield {
            "ph": "s", "id": i, "name": name, "cat": "packet",
            "pid": 0, "tid": src, "ts": _ts(depart),
        }
        yield {
            "ph": "f", "bp": "e", "id": i, "name": name, "cat": "packet",
            "pid": 0, "tid": dst, "ts": _ts(arrival),
        }


def _iter_instant_events(timeline: Timeline) -> Iterator[dict]:
    for cat, rows in (("robustness", timeline.instant_rows()),
                      ("phase", timeline.phase_rows())):
        for pe, t, name in rows:
            yield {
                "ph": "i", "s": "t", "name": name, "cat": cat,
                "pid": 0, "tid": pe, "ts": _ts(t),
            }


def _iter_payload_events(timeline: Timeline, fmt: str) -> Iterator[dict]:
    """Non-metadata events in document order."""
    yield from _iter_span_events(timeline)
    if fmt == "perfetto":
        yield from _iter_flow_events(timeline)
        yield from _iter_instant_events(timeline)


def _other_data(result: MLSimResult, fmt: str) -> dict:
    other: dict = {"model": result.model_name,
                   "elapsed_us": _ts(result.elapsed_us)}
    if fmt == "perfetto":
        other["metrics"] = result.metrics
    return other


def export_trace(trace: TraceBuffer, params: MLSimParams,
                 fmt: str = "perfetto") -> str:
    """Replay a trace under ``params`` and render its timeline in one of
    :data:`FORMATS`; returns the text, byte-deterministic.  The trace
    file itself is :func:`repro.trace.io.save_trace`'s.
    """
    if fmt not in FORMATS:
        raise ConfigurationError(
            f"unknown export format {fmt!r}; choose from {FORMATS}")
    result = replay_with_timeline(trace, params)
    timeline = result.timeline
    doc = {
        "displayTimeUnit": "ms",
        "traceEvents": (_metadata_events(timeline.num_pes,
                                         result.model_name)
                        + list(_iter_payload_events(timeline, fmt))),
        "otherData": _other_data(result, fmt),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def export_trace_chunked(
    trace: TraceBuffer,
    params: MLSimParams,
    fmt: str = "perfetto",
    *,
    chunk_events: int,
) -> Iterator[str]:
    """Yield the export as standalone documents of <= ``chunk_events``
    payload events each.

    Every chunk repeats the metadata (process/thread names) so it opens
    in Perfetto on its own; flow ids are global indices, so arrows whose
    endpoints straddle a chunk boundary still connect.  Concatenating
    the chunks' payloads in order reproduces the monolithic
    :func:`export_trace` document byte-for-byte (see
    :func:`merge_chunks`), and only one chunk of events is materialized
    at a time.
    """
    if fmt not in FORMATS:
        raise ConfigurationError(
            f"cannot chunk format {fmt!r}; choose from {FORMATS}")
    if chunk_events < 1:
        raise ConfigurationError(
            f"--chunk-events must be positive, got {chunk_events}")
    result = replay_with_timeline(trace, params)
    timeline = result.timeline
    metadata = _metadata_events(timeline.num_pes, result.model_name)
    other = _other_data(result, fmt)

    def render(index: int, payload: list[dict]) -> str:
        doc = {
            "displayTimeUnit": "ms",
            "traceEvents": metadata + payload,
            "otherData": dict(other, chunk=index),
        }
        return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
                + "\n")

    index = 0
    payload: list[dict] = []
    for event in _iter_payload_events(timeline, fmt):
        payload.append(event)
        if len(payload) >= chunk_events:
            yield render(index, payload)
            index += 1
            payload = []
    if payload or index == 0:
        yield render(index, payload)


def merge_chunks(chunks: Iterable[str]) -> str:
    """Reassemble :func:`export_trace_chunked` output into the
    monolithic document — byte-identical to :func:`export_trace`.

    Metadata events (``ph == "M"``) are taken from the first chunk (all
    chunks repeat them identically); payloads concatenate in order; the
    ``chunk`` stamp is dropped from ``otherData``.
    """
    events: list[dict] = []
    other: dict | None = None
    for index, text in enumerate(chunks):
        doc = json.loads(text)
        chunk_other = doc.get("otherData", {})
        if chunk_other.get("chunk") != index:
            raise ConfigurationError(
                f"chunk {index} is out of order or not a chunked export "
                f"(otherData.chunk={chunk_other.get('chunk')!r})")
        if other is None:
            other = {k: v for k, v in chunk_other.items() if k != "chunk"}
            events.extend(doc["traceEvents"])
        else:
            events.extend(ev for ev in doc["traceEvents"]
                          if ev.get("ph") != "M")
    if other is None:
        raise ConfigurationError("no chunks to merge")
    doc = {
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "otherData": other,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
