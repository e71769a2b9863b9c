"""Structure-of-arrays trace layout.

A trace is its columns: one array per :class:`TraceEvent` field, events
stored per-PE contiguous (the *block*, see :meth:`TraceBuffer.block`).
The v2 file is that block behind a JSON header, a loaded buffer is that
block mapped with ``np.frombuffer``, a recorded buffer packs it from
its rows at its first save or replay, and the vectorized MLSim engine
(:mod:`repro.mlsim.engine_soa`) consumes :class:`TraceColumns`, the
timing-relevant columns widened to the engine's dtypes: probe -> file
-> memory -> replay builds no ``TraceEvent``.  Block arrays are
read-only whether mapped or packed: whoever writes copies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.trace.buffer import TraceBuffer, coalesced

#: Integer event fields decoded into columns (timing-relevant only;
#: sanitizer byte ranges stay in the block).
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
    work: np.ndarray              # float64 (read-only: the block's own)
    group_sizes: tuple[int, ...]  # group id -> member count
    phases: tuple[str, ...] = ()  # PHASE events' ``flag`` - 1 -> label

    @property
    def total_events(self) -> int:
        return int(self.starts[-1])


def columns_from_buffer(trace: TraceBuffer) -> TraceColumns:
    """``trace`` as replay columns, the same object for as long as the
    buffer's block stands (the per-trace replay index hangs off it)."""
    assert trace.groups is not None
    block = trace.block()
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

    The columns' twin of :meth:`TraceBuffer.coalesce_compute`, for
    columns decoded straight from a trace file: the same merge
    (:func:`repro.trace.buffer.coalesced`), work summed left to right.
    """
    merged = coalesced(columns.kind, columns.starts, columns.work)
    if merged is None:
        return columns
    keep, work = merged
    kept = np.concatenate([[0], np.cumsum(keep)])
    return replace(columns, starts=kept[columns.starts], work=work[keep],
                   **{name: getattr(columns, name)[keep]
                      for name in (*INT_COLUMNS, "group_size")})
