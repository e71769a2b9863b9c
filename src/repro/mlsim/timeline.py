"""Per-PE timelines: a span log of where simulated time went.

With ``record_timeline=True`` the engine logs one span per contiguous
stretch of busy or idle time, labelled with the trace event that caused
it — the simulator's equivalent of Figure 7's horizontal bars, but for a
whole run — plus one flow per packet and one mark per robustness instant
or user phase label.

The log is columns: the engine appends an event index and the times it
alone knows, and :class:`Timeline` derives everything else — PE, label,
packet endpoints and size — from that event's trace columns when someone
reads it.  The ``*_rows`` iterators are what the Perfetto exporter and
the text renderer consume; :class:`Span` and friends are named views of
the same rows for ad-hoc analysis (e.g. "what exactly is PE 3 waiting
on between 400 us and 900 us?").
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.trace.events import EventKind
from repro.trace.soa import TraceColumns

#: Bucket names as used by the engine.
BUCKETS = ("execution", "rtsys", "overhead", "idle")

#: Span codes the engine logs: an index into :data:`BUCKETS`, or STOLEN
#: — overhead spent servicing another PE's message, labelled
#: ``stolen-interrupt`` rather than after the event it was applied at.
EXECUTION, RTSYS, OVERHEAD, IDLE, STOLEN = range(5)
_BUCKET_OF = BUCKETS + ("overhead",)

_KIND_NAME = {int(kind): kind.name for kind in EventKind}


@dataclass(frozen=True)
class Span:
    """One contiguous accounted interval on one PE's clock."""

    pe: int
    start: float
    end: float
    bucket: str           # execution | rtsys | overhead | idle
    label: str            # event kind (and partner where meaningful)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Flow:
    """One packet's journey: source PE injection to destination arrival."""

    src: int
    depart: float
    dst: int
    arrival: float
    kind: str             # PUT | GET | GET-REPLY | SEND
    size: int             # payload bytes


@dataclass(frozen=True)
class Instant:
    """A zero-duration marker (RETRY / TIMEOUT / SPILL)."""

    pe: int
    t: float
    name: str


@dataclass(frozen=True)
class PhaseMark:
    """A user phase label from ``ctx.phase(...)``."""

    pe: int
    t: float
    label: str


class Timeline:
    """Everything one recording replay logged, per PE.

    The three logs are the engine's columns as it appended them:
    ``span_log`` is (event, code, start, end), ``flow_log`` (event,
    depart, arrival) — a GET's request, then its reply — and
    ``mark_log`` (event, t).
    """

    def __init__(self, columns: TraceColumns, span_log: tuple,
                 flow_log: tuple, mark_log: tuple) -> None:
        self.num_pes = columns.num_pes
        self._columns = columns
        self.span_log = span_log
        self.flow_log = flow_log
        self.mark_log = mark_log

    def _located(self, log: tuple) -> tuple[np.ndarray, np.ndarray]:
        """A log's event indices and the PEs those events belong to."""
        event = np.asarray(log[0], dtype=np.int64)
        return event, np.searchsorted(self._columns.starts, event,
                                      side="right") - 1

    @cached_property
    def _span_table(self) -> tuple[list, ...]:
        """(bounds, start, end, bucket, label): spans grouped by PE,
        each PE's in logged order, PE ``pe``'s at ``bounds[pe] :
        bounds[pe + 1]``."""
        event, pe = self._located(self.span_log)
        order = np.argsort(pe, kind="stable")
        event = event[order]
        code, start, end = (np.asarray(column)[order]
                            for column in self.span_log[1:])
        cols = self._columns
        # One string per distinct (kind, partner), not one per span.
        partner = np.maximum(cols.partner[event], -1) + 1
        width = int(partner.max(initial=0)) + 1
        keys, label = np.unique(cols.kind[event].astype(np.int64) * width
                                + partner, return_inverse=True)
        names = [_KIND_NAME[k] + (f"->{p - 1}" if p else "")
                 for k, p in (divmod(key, width) for key in keys.tolist())]
        label[code == STOLEN] = len(names)
        names.append("stolen-interrupt")
        return (np.searchsorted(pe[order],
                                np.arange(self.num_pes + 1)).tolist(),
                start.tolist(), end.tolist(),
                [_BUCKET_OF[c] for c in code.tolist()],
                [names[j] for j in label.tolist()])

    def span_rows(self, pe: int) -> Iterator[tuple]:
        """(start, end, bucket, label) of every span on one PE."""
        bounds, *columns = self._span_table
        return zip(*(c[bounds[pe]:bounds[pe + 1]] for c in columns))

    def flow_rows(self) -> Iterator[tuple]:
        """(src, depart, dst, arrival, kind, size) of every packet."""
        event, pe = self._located(self.flow_log)
        _, depart, arrival = self.flow_log
        cols = self._columns
        kind = cols.kind[event]
        get = kind == int(EventKind.GET)
        reply = np.zeros(len(event), dtype=bool)
        reply[np.nonzero(get)[0][1::2]] = True
        partner = cols.partner[event]
        names = ["GET-REPLY" if r else _KIND_NAME[k]
                 for k, r in zip(kind.tolist(), reply.tolist())]
        return zip(np.where(reply, partner, pe).tolist(), depart,
                   np.where(reply, pe, partner).tolist(), arrival, names,
                   np.where(get & ~reply, 0, cols.size[event]).tolist())

    def _mark_rows(self, phase: bool) -> Iterator[tuple]:
        event, pe = self._located(self.mark_log)
        cols = self._columns
        pick = (cols.kind[event] == int(EventKind.PHASE)) == phase
        event = event[pick]
        if phase:
            known = cols.phases
            names = [known[pid - 1] if 1 <= pid <= len(known)
                     else f"phase-{pid}" for pid in cols.flag[event].tolist()]
        else:
            names = [_KIND_NAME[k] for k in cols.kind[event].tolist()]
        return zip(pe[pick].tolist(),
                   np.asarray(self.mark_log[1])[pick].tolist(), names)

    def instant_rows(self) -> Iterator[tuple]:
        """(pe, t, name) of every RETRY / TIMEOUT / SPILL marker."""
        return self._mark_rows(False)

    def phase_rows(self) -> Iterator[tuple]:
        """(pe, t, label) of every user phase mark."""
        return self._mark_rows(True)

    def spans_for(self, pe: int) -> list[Span]:
        return [Span(pe, *row) for row in self.span_rows(pe)]

    @property
    def flows(self) -> list[Flow]:
        return [Flow(*row) for row in self.flow_rows()]

    @property
    def instants(self) -> list[Instant]:
        return [Instant(*row) for row in self.instant_rows()]

    @property
    def phase_marks(self) -> list[PhaseMark]:
        return [PhaseMark(*row) for row in self.phase_rows()]

    def busy_fraction(self, pe: int) -> float:
        spans = self.spans_for(pe)
        if not spans:
            return 0.0
        total = spans[-1].end
        busy = sum(s.duration for s in spans if s.bucket != "idle")
        return busy / total if total else 0.0

    def dominant_label(self, pe: int, bucket: str) -> str | None:
        """The label accounting for the most time in a bucket."""
        totals: dict[str, float] = {}
        for span in self.spans_for(pe):
            if span.bucket == bucket:
                totals[span.label] = totals.get(span.label, 0.0) \
                    + span.duration
        if not totals:
            return None
        return max(totals, key=totals.get)

    def window(self, pe: int, start: float, end: float) -> list[Span]:
        """Spans overlapping [start, end) on one PE."""
        return [s for s in self.spans_for(pe)
                if s.end > start and s.start < end]


_GLYPHS = {"execution": "#", "rtsys": "r", "overhead": "o", "idle": "."}


def render_timeline(timeline: Timeline, *, width: int = 72,
                    pes: list[int] | None = None) -> str:
    """ASCII Gantt chart: one row per PE, time left to right."""
    pes = pes if pes is not None else list(range(timeline.num_pes))
    rows = {pe: list(timeline.span_rows(pe)) for pe in pes}
    horizon = max((spans[-1][1] for spans in rows.values() if spans),
                  default=0.0)
    if horizon <= 0:
        return "(empty timeline)"
    scale = width / horizon
    lines = [f"timeline, 0 .. {horizon:.1f} us "
             f"(# exec, r rtsys, o overhead, . idle)"]
    for pe in pes:
        row = [" "] * width
        for start, end, bucket, _label in rows[pe]:
            a = min(int(start * scale), width - 1)
            b = min(max(int(end * scale), a + 1), width)
            row[a:b] = _GLYPHS[bucket] * (b - a)
        lines.append(f"PE {pe:3d} |{''.join(row)}|")
    return "\n".join(lines)
