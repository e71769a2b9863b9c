"""Foreign-event → canonical-trace mapper.

This is the heart of ingestion: it turns a stream of
:class:`~repro.ingest.events.ForeignEvent` records into a
:class:`~repro.trace.buffer.TraceBuffer` that MLSim replays, the
checker analyzes, and the exporters render — exactly as if one of our
own apps had recorded it.

Mapping semantics (documented in full in ``docs/ingest.md``):

* **Rank → cell**: identity.  Rank *r* becomes cell *r*; ``cells``
  may pad the machine with idle cells past the last rank (collectives
  then synchronize the mapped-rank subgroup, not the whole machine).
* **Clock normalization**: foreign timestamps are the source's own
  clock.  Events are processed in global timestamp order — the
  simulator-loop shape: inject each record as the sim clock advances —
  and per-rank gaps between consecutive records become synthesized
  COMPUTE intervals scaled by ``time_unit`` (foreign units → µs).
  The earliest timestamp in the stream is the common origin, so
  late-starting ranks carry their skew into the replay.
* **put**: a PUT whose ``recv_flag`` is the destination rank's
  put-delivery flag (symmetric slot 0), so the arrival is countable.
* **wait/quiet/fence**: FLAG_WAIT on the rank's own put-delivery flag
  with target = number of puts destined to it issued so far in global
  order (OpenSHMEM ``quiet`` semantics: everything outstanding toward
  me must have landed).
* **get**: a blocking GET — the GET event (reply increments the
  issuer's get flag, symmetric slot 1) immediately followed by a
  FLAG_WAIT for the issuer's cumulative get count.
* **send/recv**: SEND/RECV matched into ``msg_id`` pairs by
  (src, dst, tag) FIFO order, MPI's non-overtaking rule.  A receive
  with no matching send anywhere in the stream is a hard
  :class:`~repro.core.errors.IngestError` (it would park forever in
  replay).
* **barrier / reduce**: BARRIER and GOP (scalar, ≤ 8 payload bytes) or
  VGOP (vector) over the mapped-rank group.  Ranks must agree on the
  collective sequence; a mismatch is diagnosed at ingest time rather
  than as a replay deadlock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.errors import IngestError
from repro.core.flags import flag_global_id
from repro.ingest.events import PARTNER_OPS, ForeignEvent, ForeignOp
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind

#: Symmetric flag slots reserved by the mapper (every cell has 4096
#: slots; ingested traces use only these two).
PUT_FLAG_SLOT = 0  # incremented on the destination when a put lands
GET_FLAG_SLOT = 1  # incremented on the issuer when a get reply lands

#: Reductions up to one double are scalar Gops; larger payloads take
#: the vector (ring) path, mirroring the paper's Gop / V Gop split.
SCALAR_REDUCE_BYTES = 8


@dataclass
class IngestResult:
    """A mapped foreign trace plus its provenance summary."""

    trace: TraceBuffer
    num_ranks: int
    num_cells: int
    source_events: int
    synthesized_compute: int
    time_unit: float
    #: Per-verb source record counts, for the CLI summary.
    op_counts: dict[str, int] = field(default_factory=dict)


def _infer_ranks(events: list[ForeignEvent], source: str) -> int:
    """Rank count implied by the stream (ranks and peers both count:
    a put to a silent rank still needs that cell to exist)."""
    top = -1
    for ev in events:
        if ev.rank < 0:
            raise IngestError(f"negative rank {ev.rank}",
                              source=source, line=ev.line)
        top = max(top, ev.rank)
        if ev.op in PARTNER_OPS:
            if ev.peer < 0:
                raise IngestError(
                    f"{ev.op.value} record names no peer rank",
                    source=source, line=ev.line)
            top = max(top, ev.peer)
    if top < 0:
        raise IngestError("trace contains no events", source=source)
    return top + 1


def _check_monotonic(events: list[ForeignEvent], source: str) -> None:
    """Per-rank timestamps must not run backwards."""
    last: dict[int, ForeignEvent] = {}
    for ev in events:
        prev = last.get(ev.rank)
        if prev is not None and ev.timestamp < prev.timestamp:
            raise IngestError(
                f"rank {ev.rank} timestamp {ev.timestamp} runs "
                f"backwards (previous record at line {prev.line} had "
                f"{prev.timestamp})", source=source, line=ev.line)
        last[ev.rank] = ev


def _check_collectives(sequences: dict[int, list[str]],
                       num_ranks: int, source: str) -> None:
    """All mapped ranks must perform the same collective sequence."""
    reference = sequences.get(0, [])
    for rank in range(num_ranks):
        seq = sequences.get(rank, [])
        if seq == reference:
            continue
        pos = next((i for i, (a, b)
                    in enumerate(zip(reference, seq)) if a != b),
                   min(len(reference), len(seq)))
        ours = seq[pos] if pos < len(seq) else "nothing"
        theirs = (reference[pos] if pos < len(reference)
                  else "nothing")
        raise IngestError(
            f"collective mismatch: at collective #{pos + 1} rank "
            f"{rank} performs {ours} while rank 0 performs {theirs} "
            "(this would deadlock the replay)", source=source)


def map_events(events: list[ForeignEvent] | Any, *,
               cells: int | None = None, time_unit: float = 1.0,
               source: str = "<events>") -> IngestResult:
    """Translate a foreign event stream into a replayable trace.

    ``cells`` pads the machine beyond the inferred rank count (it is an
    error to shrink below it); ``time_unit`` scales foreign time units
    into microseconds.  Raises :class:`IngestError` on anything that
    cannot replay.
    """
    events = list(events)
    if time_unit <= 0:
        raise IngestError(f"time unit must be positive, got {time_unit}",
                          source=source)
    num_ranks = _infer_ranks(events, source)
    num_cells = num_ranks if cells is None else cells
    if num_cells < num_ranks:
        raise IngestError(
            f"--cells {num_cells} is smaller than the trace's "
            f"{num_ranks} ranks", source=source)
    _check_monotonic(events, source)

    # Global simulator-loop order: timestamp, then input order (stable
    # sort keeps each rank's record order, already monotonic).
    ordered = sorted(enumerate(events),
                     key=lambda pair: (pair[1].timestamp, pair[0]))
    origin = ordered[0][1].timestamp if ordered else 0.0

    trace = TraceBuffer(num_pes=num_cells,
                        capacity=max(4 * len(events) + num_cells, 1024))
    assert trace.groups is not None
    if num_cells == num_ranks:
        group = 0
    else:
        group = trace.groups.intern(tuple(range(num_ranks)))

    cursor = dict.fromkeys(range(num_ranks), origin)
    puts_to = dict.fromkeys(range(num_ranks), 0)  # landed-put counters
    gets_by = dict.fromkeys(range(num_ranks), 0)  # issued-get counters
    next_msg_id = 1
    # (src, dst, tag) -> FIFO of msg_ids from the side seen first.
    send_queue: dict[tuple[int, int, int], deque[int]] = {}
    recv_queue: dict[tuple[int, int, int],
                     deque[tuple[int, ForeignEvent]]] = {}
    collectives: dict[int, list[str]] = {r: [] for r in range(num_ranks)}
    op_counts: dict[str, int] = {}
    synthesized = 0

    for _, ev in ordered:
        rank = ev.rank
        op_counts[ev.op.value] = op_counts.get(ev.op.value, 0) + 1
        if ev.op in PARTNER_OPS and not 0 <= ev.peer < num_cells:
            raise IngestError(
                f"peer {ev.peer} outside the machine's "
                f"0..{num_cells - 1}", source=source, line=ev.line)
        if ev.size < 0:
            raise IngestError(f"negative payload size {ev.size}",
                              source=source, line=ev.line)
        gap = (ev.timestamp - cursor[rank]) * time_unit
        if gap > 0:
            trace.append(EventKind.COMPUTE, rank, work=gap)
            synthesized += 1
        cursor[rank] = ev.timestamp

        if ev.op is ForeignOp.COMPUTE:
            if ev.work < 0:
                raise IngestError(
                    f"negative compute duration {ev.work}",
                    source=source, line=ev.line)
            trace.append(EventKind.COMPUTE, rank, work=ev.work * time_unit)
            cursor[rank] = ev.timestamp + ev.work
        elif ev.op is ForeignOp.PUT:
            trace.append(EventKind.PUT, rank, partner=ev.peer, size=ev.size,
                         recv_flag=flag_global_id(ev.peer, PUT_FLAG_SLOT))
            if ev.peer < num_ranks:
                puts_to[ev.peer] += 1
        elif ev.op is ForeignOp.WAIT:
            trace.append(EventKind.FLAG_WAIT, rank,
                         flag=flag_global_id(rank, PUT_FLAG_SLOT),
                         target=puts_to[rank])
        elif ev.op is ForeignOp.GET:
            gets_by[rank] += 1
            flag = flag_global_id(rank, GET_FLAG_SLOT)
            trace.append(EventKind.GET, rank, partner=ev.peer, size=ev.size,
                         recv_flag=flag)
            trace.append(EventKind.FLAG_WAIT, rank, flag=flag,
                         target=gets_by[rank])
        elif ev.op is ForeignOp.SEND:
            channel = (rank, ev.peer, ev.tag)
            pending = recv_queue.get(channel)
            if pending:
                msg_id, _ = pending.popleft()
            else:
                msg_id = next_msg_id
                next_msg_id += 1
                send_queue.setdefault(channel, deque()).append(msg_id)
            trace.append(EventKind.SEND, rank, partner=ev.peer, size=ev.size,
                         msg_id=msg_id)
        elif ev.op is ForeignOp.RECV:
            channel = (ev.peer, rank, ev.tag)
            ready = send_queue.get(channel)
            if ready:
                msg_id = ready.popleft()
            else:
                msg_id = next_msg_id
                next_msg_id += 1
                recv_queue.setdefault(channel, deque()).append(
                    (msg_id, ev))
            trace.append(EventKind.RECV, rank, partner=ev.peer, size=ev.size,
                         msg_id=msg_id)
        elif ev.op is ForeignOp.BARRIER:
            collectives[rank].append("barrier")
            trace.append(EventKind.BARRIER, rank, group=group,
                         group_size=num_ranks)
        elif ev.op is ForeignOp.REDUCE:
            kind = (EventKind.GOP if ev.size <= SCALAR_REDUCE_BYTES
                    else EventKind.VGOP)
            collectives[rank].append(kind.name.lower())
            trace.append(kind, rank, size=ev.size, group=group,
                         group_size=num_ranks)
        else:  # pragma: no cover - the enum is closed
            raise IngestError(f"unmapped op {ev.op!r}", source=source,
                              line=ev.line)

    for (src, dst, tag), pending in sorted(recv_queue.items()):
        if pending:
            _, first = pending[0]
            raise IngestError(
                f"rank {dst} receives from rank {src} (tag {tag}) "
                f"{len(pending)} more time(s) than rank {src} sends "
                "(the replay would park forever)",
                source=source, line=first.line)
    _check_collectives(collectives, num_ranks, source)

    return IngestResult(
        trace=trace, num_ranks=num_ranks, num_cells=num_cells,
        source_events=len(events), synthesized_compute=synthesized,
        time_unit=time_unit, op_counts=op_counts)


def ingest_file(path: str | Path, *, reader: str | None = None,
                cells: int | None = None,
                time_unit: float = 1.0) -> IngestResult:
    """Read a foreign trace file and map it: readers + mapper in one
    call (the `repro ingest` entry point)."""
    from repro.ingest.readers import read_events

    p = Path(path)
    return map_events(read_events(p, reader), cells=cells,
                      time_unit=time_unit, source=str(p))
