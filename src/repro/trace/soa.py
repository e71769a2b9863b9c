"""Structure-of-arrays trace layout.

The trace-driven replay stage walks millions of :class:`TraceEvent`
objects; attribute access and per-event dataclass overhead dominate its
runtime.  This module decodes a trace **once** into flat per-field
column arrays (one numpy array per event field, events stored per-PE
contiguous), which the vectorized MLSim engine
(:mod:`repro.mlsim.engine_soa`) consumes: parameter-dependent costs are
computed with array operations over whole columns, and the remaining
scalar replay loop only reads plain Python lists.

There is one walk from event objects to columns, :func:`event_lists`
(one list per serialized field, kept on the :class:`TraceBuffer`
under its event count).  The v2 writer dumps those lists as they are;
:func:`columns_from_buffer` turns the timing-relevant ones into arrays
through :func:`columns_from_lists`, which
:func:`repro.trace.io.load_trace_columns` also feeds with the lists of
a v2 file — no ``TraceEvent`` is built on that path.  Writing a cache
entry (v2 file, then npz sidecar) and replaying one trace under three
presets therefore walk the events once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent

_NAMES = tuple(f.name for f in fields(TraceEvent))
#: A :class:`TraceEvent`'s fields in its positional order: the keys of
#: a v1 line and of the v2 ``columns`` table, then the sanitizer
#: annotations (repro.check), written only when present so that
#: unsanitized traces keep the original format.
EVENT_FIELDS = _NAMES[:_NAMES.index("raddr")]
RANGE_FIELDS = _NAMES[_NAMES.index("raddr"):]

#: Integer event fields decoded into columns (timing-relevant only;
#: sanitizer byte ranges stay on the event objects).
INT_COLUMNS = (
    "kind", "partner", "size", "send_flag", "recv_flag", "msg_id",
    "flag", "target", "group",
)


@dataclass
class TraceColumns:
    """One trace as flat per-field arrays, events per-PE contiguous.

    ``starts[pe] : starts[pe + 1]`` is PE ``pe``'s slice of every
    column, in that PE's program order.  ``group_size`` is the
    *effective* group size (the event's own ``group_size`` when set,
    else the group table's member count), which is what the timing
    engine consumes.
    """

    num_pes: int
    starts: np.ndarray            # int64, length num_pes + 1
    kind: np.ndarray              # int16
    partner: np.ndarray           # int64
    size: np.ndarray              # int64
    send_flag: np.ndarray         # int64
    recv_flag: np.ndarray         # int64
    msg_id: np.ndarray            # int64
    flag: np.ndarray              # int64
    target: np.ndarray            # int64
    group: np.ndarray             # int64
    group_size: np.ndarray        # int64 (effective)
    work: np.ndarray              # float64
    group_sizes: tuple[int, ...]  # group id -> member count

    @property
    def total_events(self) -> int:
        return int(self.starts[-1])


def event_lists(trace: TraceBuffer) -> dict[str, list]:
    """One list per :data:`EVENT_FIELDS` name (plus :data:`RANGE_FIELDS`
    when any event is annotated), events per-PE contiguous, ``kind`` as
    plain ints.

    Kept on the buffer while its event count stands, until
    :func:`columns_from_buffer` has made its arrays from them.  The
    count suffices as the key: the only in-place rewrite of a recorded
    event, :meth:`TraceBuffer.coalesce_compute`, changes ``work`` only
    when it also removes an event.
    """
    cached = getattr(trace, "_event_lists", None)
    if cached is not None and cached[0] == trace.total_events:
        return cached[1]
    ordered = [ev for pe in range(trace.num_pes)
               for ev in trace.events_for(pe)]

    def column(name: str) -> list:
        return list(map(attrgetter(name), ordered))

    lists = {name: column(name) for name in EVENT_FIELDS}
    lists["kind"] = list(map(int, lists["kind"]))
    if max(column("raddr"), default=-1) >= 0 \
            or max(column("laddr"), default=-1) >= 0:
        lists.update((name, column(name)) for name in RANGE_FIELDS)
    trace._event_lists = (  # type: ignore[attr-defined]
        trace.total_events, lists)
    return lists


def columns_from_lists(num_pes: int, counts: list[int],
                       lists: dict[str, list],
                       group_sizes: tuple[int, ...]) -> TraceColumns:
    """Per-field lists (from :func:`event_lists` or a v2 document's
    ``columns`` table) as :class:`TraceColumns`: one array per list,
    the effective group size resolved from the group table."""
    starts = np.zeros(num_pes + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=starts[1:])
    kind = np.asarray(lists["kind"], dtype=np.int16)
    ints = {name: np.asarray(lists[name], dtype=np.int64)
            for name in INT_COLUMNS if name != "kind"}
    explicit = np.asarray(lists["group_size"], dtype=np.int64)
    table = np.asarray(group_sizes, dtype=np.int64)
    group_size = np.where(explicit != 0, explicit, table[ints["group"]])
    work = np.asarray(lists["work"], dtype=np.float64)
    return TraceColumns(
        num_pes=num_pes, starts=starts, kind=kind, work=work,
        group_size=group_size, group_sizes=group_sizes, **ints)


def columns_from_buffer(trace: TraceBuffer) -> TraceColumns:
    """Decode ``trace`` into columns, reusing a cached decode when the
    buffer has not changed since (same event count, as for
    :func:`event_lists`).  The lists are dropped once the arrays exist
    (together with the events they would hold the trace three times),
    so a cache entry costs one walk when the v2 file is written first.
    """
    assert trace.groups is not None
    cached = getattr(trace, "_soa_columns", None)
    if cached is not None and cached.total_events == trace.total_events:
        return cached
    n = trace.num_pes
    columns = columns_from_lists(
        n, [len(trace.events_for(pe)) for pe in range(n)],
        event_lists(trace),
        tuple(trace.groups.size(g) for g in range(len(trace.groups))))
    trace._soa_columns = columns  # type: ignore[attr-defined]
    trace._event_lists = None  # type: ignore[attr-defined]
    return columns


def coalesce_columns(columns: TraceColumns) -> TraceColumns:
    """Merge adjacent COMPUTE (and adjacent RTSYS) events per PE.

    The column-level twin of :meth:`TraceBuffer.coalesce_compute`, for
    columns decoded straight from a trace file.  Work sums accumulate
    left to right, exactly as the buffer-level merge does.
    """
    kind = columns.kind
    n = columns.num_pes
    total = len(kind)
    if total == 0:
        return columns
    compute = (kind == int(EventKind.COMPUTE)) | (kind == int(EventKind.RTSYS))
    # An event merges into its predecessor when both are the same
    # COMPUTE/RTSYS kind and belong to the same PE.
    same_prev = np.zeros(total, dtype=bool)
    same_prev[1:] = compute[1:] & (kind[1:] == kind[:-1])
    boundaries = columns.starts[1:-1]
    same_prev[boundaries[boundaries < total]] = False   # trailing empty PEs
    if not same_prev.any():
        return columns
    keep = ~same_prev
    # Each merged event folds its work into the nearest kept event
    # before it, accumulating left to right — the same float addition
    # order as the buffer-level merge.
    target = np.maximum.accumulate(
        np.where(keep, np.arange(total), -1)).tolist()
    wl = columns.work.tolist()
    for i in np.nonzero(same_prev)[0].tolist():
        wl[target[i]] += wl[i]
    work = np.asarray(wl)
    kept = np.nonzero(keep)[0]
    per_pe_counts = np.diff(columns.starts)
    removed_per_pe = np.zeros(n, dtype=np.int64)
    pe_of = np.repeat(np.arange(n), per_pe_counts)
    np.add.at(removed_per_pe, pe_of[same_prev], 1)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_pe_counts - removed_per_pe, out=starts[1:])
    return TraceColumns(
        num_pes=n, starts=starts,
        kind=kind[kept],
        partner=columns.partner[kept],
        size=columns.size[kept],
        send_flag=columns.send_flag[kept],
        recv_flag=columns.recv_flag[kept],
        msg_id=columns.msg_id[kept],
        flag=columns.flag[kept],
        target=columns.target[kept],
        group=columns.group[kept],
        group_size=columns.group_size[kept],
        work=work[kept],
        group_sizes=columns.group_sizes,
    )
