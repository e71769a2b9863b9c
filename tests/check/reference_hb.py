"""The sweep replay: the oracle the checker's happens-before is held to.

Until the checker computed its happens-before as edges read from the
trace's columns plus one pass over the synchronization events
(:mod:`repro.check.hb`), it replayed the recorded event streams through
this synchronization-only scheduler: per-PE stream pointers advance in
cell-order sweeps, and every blocking event blocks here too, until the
events that would satisfy it at runtime have been processed.  A blocked
cell is not polled: it registers on the event it waits for and is put
back into the sweep when that event is processed (see
:meth:`_Replay.run`).  Processing an event ticks its PE's vector clock;
satisfying a wait joins in the clocks of the events that discharged it.

``tests/check/test_hb_schedule.py`` holds the production pass to this
file: diagnostics, flag increments, covering waits and happens-before
on generated event soups, the ``examples/buggy/`` fixtures, shipped
apps and generated programs.  Nothing under ``src/`` imports it.

Edges modeled:

* **FLAG_WAIT** joins the clocks of the first ``target`` increments of
  its flag instance in issue order.
* **BARRIER** rendezvous: the k-th barrier of a group on each member
  matches the k-th on every other; all members leave with the join of
  all arrival clocks.
* **GOP/VGOP** rendezvous like barriers, one generation counter per
  group regardless of kind — mixed GOP/VGOP kinds at one rendezvous are
  flagged.
* **SEND -> RECV** by packet serial (``msg_id``).

A replay that stalls is itself a finding (``FLAG-DEADLOCK``,
``BARRIER-MISMATCH``/``REDUCTION-MISMATCH``, ``SYNC-STALL``); after
reporting, the replay force-releases the lowest blocked cell and
continues.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

from repro.core.flags import MAX_FLAGS_PER_PE
from repro.trace.events import EventKind, TraceEvent
from repro.check.diagnostics import (
    SEVERITY_WARNING,
    Diagnostic,
    EventRef,
)

#: (pe, index within that PE's event list) — the identity of one event.
EventKey = tuple[int, int]

_COLLECTIVES = (EventKind.BARRIER, EventKind.GOP, EventKind.VGOP)


def describe_flag(iid: int) -> str:
    """Human name of a global flag id: owning cell and slot."""
    owner, slot = divmod(iid - 1, MAX_FLAGS_PER_PE)
    return f"flag {slot} on cell {owner}"


def _ref(ev: TraceEvent) -> EventRef:
    return EventRef(pe=ev.pe, seq=ev.seq, kind=EventKind(ev.kind).name)


@dataclass
class _FlagBlock:
    iid: int
    target: int
    need: list[EventKey]       # increments that must be processed first
    satisfied: bool            # False when the trace can never reach target
    ptr: int = 0               # how many of ``need`` are known processed


@dataclass
class _RecvBlock:
    send_key: EventKey


@dataclass
class _CollectiveBlock:
    rkey: tuple[str, int, int]  # (class, gid, occurrence)


class HBResult:
    """Per-event vector clocks plus the flag bookkeeping races.py needs."""

    def __init__(
        self,
        num_pes: int,
        events: list[list[TraceEvent]],
        clock: list[list[tuple[int, ...]]],
        diagnostics: list[Diagnostic],
        increments: dict[int, list[EventKey]],
        increment_index: dict[tuple[int, EventKey], int],
        covering: dict[int, list[tuple[int, EventKey]]],
    ) -> None:
        self.num_pes = num_pes
        self.events = events
        self.clock = clock
        self.diagnostics = diagnostics
        self.flag_increments = increments
        self._increment_index = increment_index
        self._covering = covering

    def event(self, key: EventKey) -> TraceEvent:
        return self.events[key[0]][key[1]]

    def happens_before(self, a: EventKey, b: EventKey) -> bool:
        """True when event ``a`` is ordered strictly before ``b``."""
        if a == b:
            return False
        return self.clock[b[0]][b[1]][a[0]] >= a[1] + 1

    def concurrent(self, a: EventKey, b: EventKey) -> bool:
        return (
            a != b
            and not self.happens_before(a, b)
            and not self.happens_before(b, a)
        )

    def increment_index(self, iid: int, key: EventKey) -> int:
        """1-based position of ``key`` among instance ``iid``'s increments."""
        return self._increment_index[(iid, key)]

    def covering_wait(self, iid: int, k: int) -> EventKey | None:
        """The first satisfied wait on ``iid`` whose target covers the
        k-th increment — the event that proves that increment's transfer
        completed.  None when nothing ever waits that far."""
        for target, key in self._covering.get(iid, []):
            if target >= k:
                return key
        return None


def reference_happens_before(trace: Any) -> HBResult:
    """Replay ``trace`` (anything with ``num_pes``/``events_for``/
    ``groups``) through the sweep scheduler."""
    return _Replay(trace).run()


class _Replay:
    def __init__(self, trace: Any) -> None:
        self.num_pes: int = trace.num_pes
        self.events: list[list[TraceEvent]] = [
            trace.events_for(pe) for pe in range(self.num_pes)
        ]
        self.groups = trace.groups
        n = self.num_pes
        self.idx = [0] * n
        self.vc: list[list[int]] = [[0] * n for _ in range(n)]
        self.clock: list[list[tuple[int, ...]]] = [
            [()] * len(evs) for evs in self.events
        ]
        self.blocked: list[Any] = [None] * n
        self.diagnostics: list[Diagnostic] = []
        # Flag increments per instance, in global issue order; and each
        # increment's 1-based position within its instance.
        self.increments: dict[int, list[EventKey]] = {}
        self.inc_index: dict[tuple[int, EventKey], int] = {}
        # SEND events by packet serial.
        self.send_by_msg: dict[int, EventKey] = {}
        ordered = sorted(
            (
                (ev.seq, pe, i)
                for pe, evs in enumerate(self.events)
                for i, ev in enumerate(evs)
            ),
        )
        for _seq, pe, i in ordered:
            ev = self.events[pe][i]
            if ev.kind in (EventKind.PUT, EventKind.GET):
                for iid in (ev.send_flag, ev.recv_flag):
                    if iid:
                        bucket = self.increments.setdefault(iid, [])
                        bucket.append((pe, i))
                        self.inc_index[(iid, (pe, i))] = len(bucket)
            elif ev.kind is EventKind.SEND:
                self.send_by_msg.setdefault(ev.msg_id, (pe, i))
        # Collective occurrence counters per (class, gid) per PE, and
        # open rendezvous: rkey -> {pe: (clock, event index, kind)}.
        self.occ: list[dict[tuple[str, int], int]] = [{} for _ in range(n)]
        self.arrivals: dict[
            tuple[str, int, int],
            dict[int, tuple[list[int], int, EventKind]],
        ] = {}
        # Satisfied waits per instance in program order: (target, key).
        self.covering: dict[int, list[tuple[int, EventKey]]] = {}
        # Scheduling (see run): the cells still to visit in this sweep
        # (a heap, so they come out in cell order; ``_in_sweep`` is
        # every cell the sweep ever held), those of the next one, the
        # cell being advanced (``n`` between sweeps), and who waits on
        # which event.
        self._sweep: list[int] = []
        self._in_sweep: set[int] = set()
        self._next: set[int] = set()
        self._cur = n
        self._waiters: dict[EventKey, list[int]] = {}
        self._done = [False] * n
        self._unfinished = n

    # -- helpers -------------------------------------------------------

    def _processed(self, key: EventKey) -> bool:
        return key[1] < self.idx[key[0]]

    def _join(self, pe: int, keys: list[EventKey]) -> None:
        vc = self.vc[pe]
        # A cell's clocks only grow along its program order, so of
        # several events of one cell the latest carries the join.
        latest: dict[int, int] = {}
        for kp, ki in keys:
            if ki > latest.get(kp, -1):
                latest[kp] = ki
        for kp, ki in latest.items():
            other = self.clock[kp][ki]
            for c in range(self.num_pes):
                if other[c] > vc[c]:
                    vc[c] = other[c]

    def _finish(self, pe: int, i: int) -> None:
        self.clock[pe][i] = tuple(self.vc[pe])
        self.idx[pe] = i + 1
        self.blocked[pe] = None
        self._wake((pe, i))

    def _schedule(self, pe: int) -> None:
        """Visit ``pe`` at its next turn: later in this sweep when the
        sweep has not reached it yet, else in the next one."""
        if pe <= self._cur:
            self._next.add(pe)
        elif pe not in self._in_sweep:
            self._in_sweep.add(pe)
            heapq.heappush(self._sweep, pe)

    def _wake(self, key: EventKey) -> None:
        """``key`` has just been processed: its waiters get a visit."""
        for pe in self._waiters.pop(key, ()):
            self._schedule(pe)

    # -- main loop -----------------------------------------------------

    def run(self) -> HBResult:
        """Sweep the cells in cell order until every program is done.

        The order in which events are processed — and with it every
        force-release and the order of ``diagnostics`` — is that of a
        scheduler that visits *every* cell in every sweep.  Such a visit
        does something only when the cell can move, so only those cells
        are visited: all of them in the first sweep; afterwards a cell
        released from a rendezvous, and a cell blocked on a flag or a
        message when the event it registered on (``_waiters``) is
        processed.  Whoever processes that event puts the waiter into
        the current sweep if its turn is still ahead, else into the next
        (:meth:`_schedule`) — the first turn at which the full sweep
        would have found it able to move.  A sweep nobody is scheduled
        for is the full sweep's pass without progress: a stall.
        """
        self._next = set(range(self.num_pes))
        while True:
            self._in_sweep, self._next = self._next, set()
            self._sweep = sorted(self._in_sweep)    # sorted: a valid heap
            while self._sweep:
                self._cur = heapq.heappop(self._sweep)
                self._advance(self._cur)
            self._cur = self.num_pes
            if not self._unfinished:
                break
            if not self._next:
                self._resolve_stall()
        return HBResult(
            num_pes=self.num_pes,
            events=self.events,
            clock=self.clock,
            diagnostics=self.diagnostics,
            increments=self.increments,
            increment_index=self.inc_index,
            covering=self.covering,
        )

    def _advance(self, pe: int) -> bool:
        """Run ``pe`` until it blocks or ends; True when it moved."""
        made = False
        while True:
            blk = self.blocked[pe]
            if blk is not None:
                if not self._try_release(pe, blk):
                    return made
                made = True
                continue
            i = self.idx[pe]
            if i >= len(self.events[pe]):
                if not self._done[pe]:
                    self._done[pe] = True
                    self._unfinished -= 1
                return made
            state = self._process(pe, i, self.events[pe][i])
            made = True
            if state == "blocked":
                return made

    # -- event processing ----------------------------------------------

    def _process(self, pe: int, i: int, ev: TraceEvent) -> str:
        self.vc[pe][pe] += 1
        kind = ev.kind
        if kind is EventKind.FLAG_WAIT:
            return self._process_wait(pe, i, ev)
        if kind in _COLLECTIVES:
            return self._process_collective(pe, i, ev)
        if kind is EventKind.RECV:
            return self._process_recv(pe, i, ev)
        self._finish(pe, i)
        return "done"

    def _process_wait(self, pe: int, i: int, ev: TraceEvent) -> str:
        iid, target = ev.flag, ev.target
        if not iid or target <= 0:
            self._finish(pe, i)
            return "done"
        incs = self.increments.get(iid, [])
        satisfied = len(incs) >= target
        if not satisfied:
            self.diagnostics.append(Diagnostic(
                code="FLAG-DEADLOCK",
                message=(
                    f"cell {pe} waits for {describe_flag(iid)} to reach "
                    f"{target}, but the whole trace holds only "
                    f"{len(incs)} increment(s) of it — this wait can "
                    f"never be satisfied"
                ),
                events=(_ref(ev),),
                home=pe,
            ))
        need = incs[: min(target, len(incs))]
        block = _FlagBlock(iid=iid, target=target, need=need,
                           satisfied=satisfied)
        if self._flag_ready(pe, block):
            self._release_wait(pe, i, block)
            return "done"
        self.blocked[pe] = block
        return "blocked"

    def _flag_ready(self, pe: int, block: _FlagBlock) -> bool:
        """True when every needed increment is processed; else ``pe``
        registers on the first one that is not."""
        while block.ptr < len(block.need):
            key = block.need[block.ptr]
            if not self._processed(key):
                self._waiters.setdefault(key, []).append(pe)
                return False
            block.ptr += 1
        return True

    def _release_wait(self, pe: int, i: int, block: _FlagBlock) -> None:
        self._join(pe, block.need)
        if block.satisfied:
            self.covering.setdefault(block.iid, []).append(
                (block.target, (pe, i))
            )
        self._finish(pe, i)

    def _process_collective(self, pe: int, i: int, ev: TraceEvent) -> str:
        cls = "barrier" if ev.kind is EventKind.BARRIER else "reduction"
        gid = ev.group
        occ = self.occ[pe].get((cls, gid), 0)
        self.occ[pe][(cls, gid)] = occ + 1
        rkey = (cls, gid, occ)
        arrived = self.arrivals.setdefault(rkey, {})
        # The clock itself, not a copy: a cell waiting at a rendezvous
        # does not touch its clock, and leaves with a new list.
        arrived[pe] = (self.vc[pe], i, EventKind(ev.kind))
        members = self.groups.members(gid)
        if len(arrived) == len(members):
            self._complete_rendezvous(rkey)
            return "done"
        self.blocked[pe] = _CollectiveBlock(rkey=rkey)
        return "blocked"

    def _complete_rendezvous(self, rkey: tuple[str, int, int]) -> None:
        arrived = self.arrivals.pop(rkey)
        cls, gid, occ = rkey
        kinds = {k for (_, _, k) in arrived.values()}
        if cls == "reduction" and len(kinds) > 1:
            refs = tuple(sorted(
                (_ref(self.events[p][i]) for p, (_, i, _) in arrived.items()),
                key=lambda r: r.seq,
            ))
            names = "/".join(sorted(k.name for k in kinds))
            self.diagnostics.append(Diagnostic(
                code="REDUCTION-MISMATCH",
                message=(
                    f"reduction #{occ} of group {gid} mixes collective "
                    f"kinds ({names}): members disagree on the operation"
                ),
                events=refs,
            ))
        # Component-wise: one max per column over all arrival clocks.
        clocks = [clk for clk, _i, _k in arrived.values()]
        merged = [max(column)
                  for column in zip([0] * self.num_pes, *clocks)]
        stamp = tuple(merged)
        for p, (_clk, i, _k) in arrived.items():
            self.vc[p] = list(merged)
            self.clock[p][i] = stamp
            self.idx[p] = i + 1
            self.blocked[p] = None
            self._wake((p, i))
            if p != self._cur:       # the completing cell carries on
                self._schedule(p)

    def _process_recv(self, pe: int, i: int, ev: TraceEvent) -> str:
        key = self.send_by_msg.get(ev.msg_id)
        if key is None:
            self.diagnostics.append(Diagnostic(
                code="UNMATCHED-RECV",
                severity=SEVERITY_WARNING,
                message=(
                    f"cell {pe} receives packet {ev.msg_id} but no SEND "
                    f"with that serial exists in the trace"
                ),
                events=(_ref(ev),),
            ))
            self._finish(pe, i)
            return "done"
        if self._processed(key):
            self._join(pe, [key])
            self._finish(pe, i)
            return "done"
        self.blocked[pe] = _RecvBlock(send_key=key)
        self._waiters.setdefault(key, []).append(pe)
        return "blocked"

    def _try_release(self, pe: int, blk: Any) -> bool:
        if isinstance(blk, _FlagBlock):
            if self._flag_ready(pe, blk):
                self._release_wait(pe, self.idx[pe], blk)
                return True
            return False
        if isinstance(blk, _RecvBlock):
            if self._processed(blk.send_key):
                self._join(pe, [blk.send_key])
                self._finish(pe, self.idx[pe])
                return True
            return False
        # Collectives are released by whoever completes the rendezvous.
        return False

    # -- stall handling ------------------------------------------------

    def _resolve_stall(self) -> None:
        """Nothing moved in a full pass: report why and force progress.

        Definite failures (a rendezvous missing a member whose program
        already finished) are reported as mismatches; anything else is a
        synchronization cycle, reported on the lowest blocked cell.
        Force-releasing one party guarantees the replay terminates and
        keeps analyzing the rest of the trace.
        """
        for pe in range(self.num_pes):
            blk = self.blocked[pe]
            if not isinstance(blk, _CollectiveBlock):
                continue
            cls, gid, occ = blk.rkey
            arrived = self.arrivals.get(blk.rkey, {})
            members = self.groups.members(gid)
            finished = [
                m for m in members
                if m not in arrived
                and self.blocked[m] is None
                and self.idx[m] >= len(self.events[m])
            ]
            if finished:
                refs = tuple(sorted(
                    (_ref(self.events[p][i])
                     for p, (_, i, _) in arrived.items()),
                    key=lambda r: r.seq,
                ))
                code = ("BARRIER-MISMATCH" if cls == "barrier"
                        else "REDUCTION-MISMATCH")
                self.diagnostics.append(Diagnostic(
                    code=code,
                    message=(
                        f"cells {sorted(arrived)} reach {cls} #{occ} of "
                        f"group {gid}, but cells {sorted(finished)} "
                        f"finish their programs without it — group "
                        f"members disagree on the collective sequence"
                    ),
                    events=refs,
                ))
                self._complete_rendezvous(blk.rkey)
                return
        for pe in range(self.num_pes):
            blk = self.blocked[pe]
            if blk is None:
                continue
            i = self.idx[pe]
            ev = self.events[pe][i]
            self.diagnostics.append(Diagnostic(
                code="SYNC-STALL",
                message=(
                    f"cell {pe} blocks at {EventKind(ev.kind).name} "
                    f"(seq {ev.seq}) inside a synchronization cycle: no "
                    f"cell can make progress"
                ),
                events=(_ref(ev),),
            ))
            if isinstance(blk, _FlagBlock):
                done = [k for k in blk.need if self._processed(k)]
                self._join(pe, done)
                self._finish(pe, i)
                self._schedule(pe)
            elif isinstance(blk, _RecvBlock):
                self._finish(pe, i)
                self._schedule(pe)
            elif isinstance(blk, _CollectiveBlock):
                self._complete_rendezvous(blk.rkey)
            return
        raise AssertionError("stall with no blocked cell")  # pragma: no cover

