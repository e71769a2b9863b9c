"""Trace event vocabulary.

The paper collected execution traces "from probes inserted at various
points in the operating and run-time systems ... at entries and exits of
the communication and synchronization library and interrupt service
routine", then replayed them through MLSim.  Our functional machine plays
the role of the real AP1000: while an application executes, a probe layer
records one row of :class:`TraceEvent` fields per communication or
synchronization call and per computation interval; MLSim consumes them.

Event kinds map one-to-one onto the columns of Table 3: SEND, Gop, V Gop,
Sync, PUT, PUTS (stride PUT), GET, GETS (stride GET) — plus COMPUTE /
RTSYS intervals and the waits that turn into idle time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class EventKind(enum.IntEnum):
    COMPUTE = 0        # user computation interval (work µs on base SPARC)
    RTSYS = 1          # VPP Fortran run-time system work (address calc etc.)
    PUT = 2            # one-sided write (stride=True -> "PUTS" in Table 3)
    GET = 3            # one-sided read  (stride=True -> "GETS")
    SEND = 4           # two-sided blocking send
    RECV = 5           # two-sided receive (ring-buffer search + copy)
    FLAG_WAIT = 6      # spin on a flag until it reaches a target count
    BARRIER = 7        # barrier synchronization ("Sync")
    GOP = 8            # global reduction, scalar ("Gop")
    VGOP = 9           # global reduction, vector ("V Gop")
    REMOTE_LOAD = 10   # blocking shared-memory load
    REMOTE_STORE = 11  # non-blocking shared-memory store
    CREG_STORE = 12    # communication-register store (possibly remote)
    CREG_LOAD = 13     # communication-register load (blocks on p-bit)
    # --- robustness events (repro.faults; zero-cost in MLSim) ---------
    RETRY = 14         # link-layer retransmission of an unacked frame
    TIMEOUT = 15       # retransmission timer expired on a cell
    SPILL = 16         # an MSC+ command queue spilled words to DRAM
    # --- observability annotations (repro.obs; zero-cost in MLSim) ----
    PHASE = 17         # user phase label (flag = interned label id)


#: Kinds that correspond to a message leaving this PE.
MESSAGE_KINDS = frozenset({
    EventKind.PUT, EventKind.GET, EventKind.SEND,
    EventKind.REMOTE_LOAD, EventKind.REMOTE_STORE,
})


@dataclass(slots=True)
class TraceEvent:
    """One probe record as an object: the view type of
    :meth:`TraceBuffer.events_for` and what :meth:`TraceBuffer.record`
    takes (a probe appends a row and builds none).  Only the fields
    relevant to ``kind`` are meaningful; the rest keep their defaults.
    ``seq`` is a machine-global issue counter that gives MLSim one legal
    total order to break ties with.
    """

    kind: EventKind
    pe: int
    seq: int = 0
    # --- communication ---------------------------------------------------
    partner: int = -1        # destination / source PE
    size: int = 0            # payload bytes
    stride: bool = False     # stride transfer (PUTS / GETS)
    send_flag: int = 0       # global flag id updated at send completion
    recv_flag: int = 0       # global flag id updated at receive completion
    is_ack: bool = False     # GET-to-address-0 acknowledge idiom
    msg_id: int = 0          # SEND/RECV matching key (packet serial)
    # --- waits -----------------------------------------------------------
    flag: int = 0            # global flag id waited on
    target: int = 0          # flag count to reach
    # --- collectives -----------------------------------------------------
    group: int = 0           # group id (0 = all cells)
    group_size: int = 0
    # --- computation -----------------------------------------------------
    work: float = 0.0        # µs of work on the base (SPARC) processor
    # --- sanitizer byte ranges (repro.check; see trace/sanitize.py) ------
    # Recorded only when the sanitizer is active: the footprint of the
    # remote-side access (on ``partner``'s memory) and the local-side
    # access (on ``pe``'s memory).  A footprint is ``count`` chunks of
    # ``chunk`` bytes, chunk i starting at ``addr + i * step``; a
    # contiguous transfer is one chunk.  ``raddr``/``laddr`` of -1 mean
    # "no annotation on this side".
    raddr: int = -1
    rchunk: int = 0
    rcount: int = 0
    rstep: int = 0
    laddr: int = -1
    lchunk: int = 0
    lcount: int = 0
    lstep: int = 0

    def is_annotated(self) -> bool:
        """True when the sanitizer stamped a byte range on this event."""
        return self.raddr >= 0 or self.laddr >= 0


@dataclass
class GroupTable:
    """Registry of synchronization groups (group id -> member PEs).

    Group 0 is always "all cells".  Parallelizing compilers create groups
    from index-partition directives; the table is recorded alongside the
    trace so MLSim can size barriers and reductions correctly.
    """

    all_cells: tuple[int, ...]
    _groups: dict[int, tuple[int, ...]] = field(default_factory=dict)
    _ids: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        members = tuple(sorted(self.all_cells))
        self._groups[0] = members
        self._ids[members] = 0

    def intern(self, members: tuple[int, ...]) -> int:
        """Return the id of a group, registering it if new."""
        key = tuple(sorted(set(members)))
        if not key:
            raise ValueError("a synchronization group cannot be empty")
        gid = self._ids.get(key)
        if gid is None:
            gid = len(self._groups)
            self._groups[gid] = key
            self._ids[key] = gid
        return gid

    def members(self, gid: int) -> tuple[int, ...]:
        return self._groups[gid]

    def size(self, gid: int) -> int:
        return len(self._groups[gid])

    def __len__(self) -> int:
        return len(self._groups)
