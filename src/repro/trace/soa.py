"""Structure-of-arrays trace layout.

A trace is its columns: one array per :class:`TraceEvent` field, events
stored per-PE contiguous (the *block*, see :class:`TraceBuffer`).  The
v2 file is that block behind a JSON header, a loaded buffer is that
block mapped with ``np.frombuffer``, and the vectorized MLSim engine
(:mod:`repro.mlsim.engine_soa`) consumes :class:`TraceColumns`, the
timing-relevant columns widened to the engine's dtypes: file -> memory
-> replay builds no ``TraceEvent`` and no list.

There is one walk from event objects to columns, :func:`event_lists`,
paid by a recorded buffer at its first save or replay and by a loaded
one only after something asked for its events.  Block arrays are
read-only whether mapped or made here: whoever writes copies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from repro.trace.buffer import EVENT_FIELDS, RANGE_FIELDS, TraceBuffer
from repro.trace.events import EventKind, TraceEvent

#: Integer event fields decoded into columns (timing-relevant only;
#: sanitizer byte ranges stay in the block).
INT_COLUMNS = (
    "kind", "partner", "size", "send_flag", "recv_flag", "msg_id",
    "flag", "target", "group",
)

_INTS = tuple(np.dtype(code) for code in ("|i1", "<i2", "<i4", "<i8"))
#: What each event field's block column may be stored as, on disk and in
#: memory: explicit little-endian, integer widths narrowest first.
FIELD_DTYPES = {
    f.name: {"bool": (np.dtype("|b1"),),
             "float": (np.dtype("<f8"),)}.get(f.type, _INTS)
    for f in fields(TraceEvent)}


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
    work: np.ndarray              # float64 (read-only: the block's own)
    group_sizes: tuple[int, ...]  # group id -> member count
    phases: tuple[str, ...] = ()  # PHASE events' ``flag`` - 1 -> label

    @property
    def total_events(self) -> int:
        return int(self.starts[-1])


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


def event_lists(trace: TraceBuffer) -> dict[str, list]:
    """The one walk over event objects: a list per :data:`EVENT_FIELDS`
    name (plus :data:`RANGE_FIELDS` when any event is annotated),
    events per-PE contiguous."""
    ordered = [ev for pe in range(trace.num_pes)
               for ev in trace.events_for(pe)]

    def column(name: str) -> list:
        return list(map(attrgetter(name), ordered))

    lists = {name: column(name) for name in EVENT_FIELDS}
    if max(column("raddr"), default=-1) >= 0 \
            or max(column("laddr"), default=-1) >= 0:
        lists.update((name, column(name)) for name in RANGE_FIELDS)
    return lists


def event_block(trace: TraceBuffer) -> dict[str, np.ndarray]:
    """The trace's column block: the one it holds while that stands
    (:meth:`TraceBuffer.block`), else made from its events and held."""
    block = trace.block()
    if block is None:
        block = {name: pack(name, values)
                 for name, values in event_lists(trace).items()}
        trace.hold_block(block)
    return block


def columns_from_buffer(trace: TraceBuffer) -> TraceColumns:
    """``trace`` as replay columns, the same object for as long as the
    buffer's block stands (the per-trace replay index hangs off it)."""
    assert trace.groups is not None
    block = event_block(trace)
    cached = getattr(trace, "_soa_columns", None)
    if cached is not None and cached[0] is block:
        return cached[1]
    n = trace.num_pes
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(block["pe"], minlength=n), out=starts[1:])
    ints = {name: block[name].astype(np.int64)
            for name in INT_COLUMNS if name != "kind"}
    group_sizes = tuple(trace.groups.size(g)
                        for g in range(len(trace.groups)))
    explicit = block["group_size"].astype(np.int64)
    table = np.asarray(group_sizes, dtype=np.int64)
    columns = TraceColumns(
        num_pes=n, starts=starts, kind=block["kind"].astype(np.int16),
        work=block["work"], group_sizes=group_sizes, phases=trace.phases,
        group_size=np.where(explicit != 0, explicit, table[ints["group"]]),
        **ints)
    trace._soa_columns = (block, columns)  # type: ignore[attr-defined]
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
        phases=columns.phases,
    )
