"""Happens-before over a trace, via vector clocks.

The MSC+ orders nothing beyond the combined flag update, so these edges
are all the ordering a PUT/GET program is guaranteed, and a conflict
they leave unordered is a race on real hardware.  They are read off the
trace's columns (:meth:`~repro.trace.buffer.TraceBuffer.block`):

* **FLAG_WAIT** joins the first ``target`` increments of its flag
  instance (a machine-global id) in issue (``seq``) order — when a wait
  for *t* returns, at least the *t* earliest have been delivered.
* **BARRIER**, **GOP/VGOP**: the k-th barrier (or reduction, whatever
  its kind: mixed kinds are flagged) of a group on each member meet, and
  all leave with the join of their arrival clocks.
* **SEND -> RECV** by packet serial (``msg_id``).

Only the *sync* rows these edges end at get clocks.  Any other event
never blocks: its clock is the last sync row's before it on its cell
with its own component set to its index + 1, so an edge from it (an
increment, a SEND) is one from that sync row.  One Kahn pass over the
sync rows joins the clocks; neither a clock nor the set of rows the
pass reaches depends on the order it takes ready rows in.

``FLAG-DEADLOCK`` (an instance never gets enough increments) and
``UNMATCHED-RECV`` are known up front.  When nothing is ready, a
rendezvous abandoned by a member that finished its program is a
``BARRIER-MISMATCH``/``REDUCTION-MISMATCH``, else the lowest blocked
cell a ``SYNC-STALL``; that row is force-released (a wait with the
increments processed so far, a rendezvous with who arrived) and the
pass goes on.  The sweep scheduler this replaced is the oracle
``tests/check/reference_hb.py``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.flags import MAX_FLAGS_PER_PE
from repro.trace.events import EventKind
from repro.check.diagnostics import (SEVERITY_WARNING, CheckReport,
                                     Diagnostic, EventRef)

#: (pe, index within that PE's events) — the identity of one event.
EventKey = tuple[int, int]

_PUT, _GET = int(EventKind.PUT), int(EventKind.GET)
_BARRIER, _GOP, _VGOP = (int(EventKind.BARRIER), int(EventKind.GOP),
                         int(EventKind.VGOP))
#: A completed node's ``need``: no decrement brings it back to 0.
_SPENT = -(1 << 62)


def describe_flag(iid: int) -> str:
    """Human name of a global flag id: owning cell and slot."""
    owner, slot = divmod(iid - 1, MAX_FLAGS_PER_PE)
    return f"flag {slot} on cell {owner}"


def _index_in(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Where each of ``values`` is in the sorted ``keys``; -1 if absent."""
    if not len(keys):
        return np.full(len(values), -1)
    at = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return np.where(keys[at] == values, at, -1)


def _offsets(owner: np.ndarray, size: int) -> list[int]:
    """CSR offsets of the sorted ``owner`` values in ``[0, size)``."""
    return np.searchsorted(owner, np.arange(size + 1)).tolist()


class HBResult:
    """Vector clocks of a trace's sync rows, and its flag bookkeeping.

    ``block`` is the trace's columns, ``starts[pe]`` the row of ``pe``'s
    first event, and ``recv_cover[row]`` the row of the wait covering a
    PUT/GET row's receive-flag increment (-1: none) — its completion.
    """

    def __init__(self, sync: _SyncPass, clock: np.ndarray,
                 row_clock: np.ndarray, inc_cover: np.ndarray) -> None:
        self.num_pes = sync.num_pes
        self.block = sync.block
        self.starts = sync.starts
        self.diagnostics = sync.diagnostics
        self._start: list[int] = sync.starts.tolist()
        #: A clock per completed sync node, zero rows last (row -1); each
        #: row's clock in it.  Increments by instance in issue order, and
        #: each one's covering wait.
        self._clock, self._row_clock = clock, row_clock
        self._inc_iid, self._inc_row = sync.inc_iid, sync.inc_row
        self._inc_cover = inc_cover
        self.recv_cover = np.full(len(sync.kind), -1, np.int64)
        self.recv_cover[sync.inc_row[sync.inc_recv]] = \
            inc_cover[sync.inc_recv]

    def _key(self, row: int) -> EventKey:
        pe = int(self.block["pe"][row])
        return pe, row - self._start[pe]

    def happens_before(self, a: EventKey, b: EventKey) -> bool:
        """True when event ``a`` is ordered strictly before ``b``."""
        rows = self.starts[[a[0], b[0]]] + (a[1], b[1])
        return bool(self.precedes(rows[:1], rows[1:])[0])

    def precedes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each row of ``a`` is ordered strictly before the row
        of ``b`` beside it."""
        pe = self.block["pe"][a].astype(np.int64)
        return np.where(pe == self.block["pe"][b], a < b,
                        self._clock[self._row_clock[b], pe]
                        > a - self.starts[pe])

    def concurrent(self, a: EventKey, b: EventKey) -> bool:
        return (a != b and not self.happens_before(a, b)
                and not self.happens_before(b, a))

    @property
    def flag_increments(self) -> dict[int, list[EventKey]]:
        """Each flag instance's increments in issue order (an event that
        updates one as both its send and receive flag counts twice)."""
        out: dict[int, list[EventKey]] = {}
        for iid, row in zip(self._inc_iid.tolist(), self._inc_row.tolist()):
            out.setdefault(iid, []).append(self._key(row))
        return out

    def increment_index(self, iid: int, key: EventKey) -> int:
        """1-based position of ``key`` among instance ``iid``'s
        increments (the later, when it counts twice)."""
        at = np.flatnonzero(self._inc_row[self._inc_iid == iid]
                            == self._start[key[0]] + key[1])
        return int(at[-1]) + 1      # IndexError: not an increment of iid

    def covering_wait(self, iid: int, k: int) -> EventKey | None:
        """The first satisfied wait on ``iid`` whose target covers the
        k-th increment — the event that proves that increment's transfer
        completed.  None when nothing ever waits that far."""
        covers = self._inc_cover[self._inc_iid == iid]
        row = int(covers[k - 1]) if 0 < k <= len(covers) else -1
        return None if row < 0 else self._key(row)


def build_happens_before(trace: Any) -> HBResult:
    """Clocks and synchronization diagnostics of ``trace`` (a
    :class:`~repro.trace.buffer.TraceBuffer`, or anything with
    ``num_pes``, ``groups`` and ``block()``)."""
    return _SyncPass(trace).run()


class _SyncPass:
    """The sync edges of one trace, and the pass that joins clocks.

    Sync rows are numbered in block order (their *ordinals*: one cell's
    are consecutive).  A wait or receive is the node of its ordinal,
    rendezvous r node ``S + r``.  ``need[node]`` counts its row's arrival
    (the sync row before it on its cell completes) and each source's
    *guard* (the sync row before the source on its cell) — for a
    rendezvous, one arrival per member — not yet seen."""

    def __init__(self, trace: Any) -> None:
        block = self.block = trace.block()
        self.groups = trace.groups
        n = self.num_pes = trace.num_pes
        col = {name: block[name].astype(np.int64) for name in (
            "kind", "pe", "seq", "send_flag", "recv_flag", "flag", "target",
            "msg_id", "group")}
        kind, pe, seq = self.kind, self.pe, self.seq = (
            col["kind"], col["pe"], col["seq"])
        total = len(kind)
        starts = self.starts = np.searchsorted(pe, np.arange(n + 1))
        local = self.local = np.arange(total) - starts[pe]
        self.diagnostics: list[Diagnostic] = []

        # Flag increments by instance in issue order; a PUT/GET's
        # send-flag update counts before its receive-flag one.
        data = (kind == _PUT) | (kind == _GET)
        sides = [np.flatnonzero(data & (col[name] != 0))
                 for name in ("send_flag", "recv_flag")]
        row = np.concatenate(sides)
        iid = np.r_[col["send_flag"][sides[0]], col["recv_flag"][sides[1]]]
        recv = np.arange(len(row)) >= len(sides[0])
        order = np.lexsort((recv, row, seq[row], iid))
        self.inc_row, self.inc_iid, self.inc_recv = (
            row[order], iid[order], recv[order])
        self.inc_ids, self.inc_first, self.inc_count = np.unique(
            self.inc_iid, return_index=True, return_counts=True)

        # Waits need the first ``wait_need`` increments of their instance.
        flag, target = col["flag"], col["target"]
        waits = self.waits = np.flatnonzero(
            (kind == int(EventKind.FLAG_WAIT)) & (flag != 0) & (target > 0))
        at = _index_in(self.inc_ids, flag[waits])
        have = np.r_[self.inc_count, 0][at]
        self.wait_first = np.r_[self.inc_first, 0][at]
        self.wait_target = target[waits]
        self.wait_need = np.minimum(self.wait_target, have)
        self.satisfied = have >= self.wait_target
        for row, has in zip(waits[~self.satisfied].tolist(),
                            have[~self.satisfied].tolist()):
            self._report(
                "FLAG-DEADLOCK",
                f"cell {pe[row]} waits for {describe_flag(int(flag[row]))} "
                f"to reach {target[row]}, but the whole trace holds only "
                f"{has} increment(s) of it — this wait can never be "
                f"satisfied", [row], home=int(pe[row]))

        # A receive matches the first SEND of its serial in issue order.
        msg = col["msg_id"]
        sends = np.flatnonzero(kind == int(EventKind.SEND))
        sends = sends[np.argsort(seq[sends], kind="stable")]
        serials, first_send = np.unique(msg[sends], return_index=True)
        recvs = np.flatnonzero(kind == int(EventKind.RECV))
        at = _index_in(serials, msg[recvs])
        for row in recvs[at < 0].tolist():
            self._report(
                "UNMATCHED-RECV",
                f"cell {pe[row]} receives packet {msg[row]} but no SEND "
                f"with that serial exists in the trace", [row],
                severity=SEVERITY_WARNING)
        send_of, recvs = sends[first_send[at[at >= 0]]], recvs[at >= 0]

        # The k-th collective of a (class, group) per member: a rendezvous.
        coll = np.flatnonzero((kind >= _BARRIER) & (kind <= _VGOP))
        cls, gid = (kind[coll] > _BARRIER).astype(np.int64), col["group"][coll]
        groups = int(gid.max(initial=0)) + 1
        run = (pe[coll] * 2 + cls) * groups + gid
        by_run = np.argsort(run, kind="stable")
        occ = np.empty(len(coll), np.int64)
        occ[by_run] = np.arange(len(coll)) - np.searchsorted(run[by_run],
                                                             run[by_run])
        occs = int(occ.max(initial=0)) + 1
        keys, rdv_of = np.unique((cls * groups + gid) * occs + occ,
                                 return_inverse=True)
        R = len(keys)
        self.rdv_cls, self.rdv_gid, self.rdv_occ = (
            (keys // occs // groups).tolist(),
            (keys // occs % groups).tolist(), (keys % occs).tolist())
        self.mixed = set(np.flatnonzero(
            np.bincount(rdv_of, kind[coll] == _GOP, R)
            * np.bincount(rdv_of, kind[coll] == _VGOP, R)).tolist())

        # Sync rows: ordinals, predecessors, each cell's current and end.
        is_sync = np.zeros(total, bool)
        is_sync[waits] = is_sync[recvs] = is_sync[coll] = True
        sync = self.sync = np.flatnonzero(is_sync)
        S = self.S = len(sync)
        ord_of = np.full(total, -1, np.int64)
        ord_of[sync] = np.arange(S)
        self.ord_pe, self.ord_local = pe[sync], local[sync]
        self.ord_cell: list[int] = self.ord_pe.tolist()
        self.prev = self._guard(sync)
        self.cur = np.searchsorted(sync, starts[:-1]).tolist()
        self.end = np.searchsorted(sync, starts[1:]).tolist()

        # Edges into a wait: of each cell, its latest needed increment.
        need_n = self.wait_need
        owner = np.repeat(np.arange(len(waits)), need_n)
        erow = self.inc_row[np.arange(len(owner)) + np.repeat(
            self.wait_first - np.cumsum(need_n) + need_n, need_n)]
        latest = np.lexsort((local[erow], pe[erow], owner))
        owner, erow = owner[latest], erow[latest]
        keep = np.r_[(owner[1:] != owner[:-1])
                     | (pe[erow[1:]] != pe[erow[:-1]]), True][:len(owner)]
        dep_node = np.r_[ord_of[waits][owner[keep]], ord_of[recvs]]
        dep_row = np.r_[erow[keep], send_of]
        order = np.argsort(dep_node, kind="stable")
        dep_node, dep_row = dep_node[order], dep_row[order]
        self.dep_off = _offsets(dep_node, S)
        self.dep_guard = self._guard(dep_row)
        self.dep_pe, self.dep_tick = pe[dep_row], local[dep_row] + 1
        # Whose need each guard's completion counts down.
        guarded = self.dep_guard >= 0
        order = np.argsort(self.dep_guard[guarded], kind="stable")
        self.succ = dep_node[guarded][order].tolist()
        self.succ_off = _offsets(self.dep_guard[guarded][order], S)

        node_of = np.arange(S)
        node_of[ord_of[coll]] = S + rdv_of
        self.node_of = node_of.tolist()
        need = np.ones(S + R, np.int64)
        need[S:] = [len(self.groups.members(g)) for g in self.rdv_gid]
        np.add.at(need, dep_node[guarded], 1)
        np.subtract.at(need, node_of[self.prev < 0], 1)   # first arrivals
        self.need = need.tolist()
        self.ready = np.flatnonzero(need == 0).tolist()
        by_rdv = np.argsort(rdv_of, kind="stable")
        self.rdv_ords = ord_of[coll][by_rdv]
        self.rdv_off = _offsets(rdv_of[by_rdv], R)
        self.forced: list[int] = []
        # A clock per completion (per node, unless a stall splits a
        # rendezvous) and a zero row last: ``clock_of`` of ordinal -1.
        self.clock = np.zeros((S - len(coll) + R + 1, n), np.int64)
        self.pieces = 0
        self.clock_of = np.full(S + 1, -1, np.int64)

    def _guard(self, rows: np.ndarray, side: Any = "left") -> np.ndarray:
        """The ordinal of the sync row before each of ``rows`` on its
        cell (``side="right"``: or the row itself), or -1."""
        before = np.searchsorted(self.sync, rows, side) - 1
        return np.where(
            (before >= 0) & (np.r_[self.ord_pe, -1][before] == self.pe[rows]),
            before, -1)

    def _report(self, code: str, message: str, rows: list[int],
                **fields: Any) -> None:
        refs = sorted((EventRef(pe=int(self.pe[row]), seq=int(self.seq[row]),
                                kind=EventKind(int(self.kind[row])).name)
                       for row in rows), key=lambda ref: ref.seq)
        self.diagnostics.append(Diagnostic(
            code=code, message=message, events=tuple(refs), **fields))

    def run(self) -> HBResult:
        while True:
            while self.ready:
                self._complete(self.ready.pop())
            blocked = [p for p, o in enumerate(self.cur) if o < self.end[p]]
            if not blocked:
                return self._result()
            self._stall(blocked)

    def _arrived(self, r: int) -> list[int]:
        """The ordinals of rendezvous ``r`` whose cells wait at it."""
        cur, cell = self.cur, self.ord_cell
        return [o for o in self.rdv_ords[
            self.rdv_off[r]:self.rdv_off[r + 1]].tolist() if cur[cell[o]] == o]

    def _complete(self, node: int, joins: np.ndarray | None = None,
                  ticks: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> None:
        """Give ``node``'s arrived rows one clock, move their cells on.  A
        forced wait or receive brings the ordinals whose clocks it joins
        and the ``(pe, index + 1)`` components it raises."""
        r = node - self.S
        if r >= 0:
            ords = self._arrived(r)
            joins = self.prev[ords]
            if r in self.mixed:     # GOP and VGOP members: which arrived
                kinds = {EventKind(k).name
                         for k in self.kind[self.sync[ords]].tolist()}
                if len(kinds) > 1:
                    self._report(
                        "REDUCTION-MISMATCH", f"reduction "
                        f"#{self.rdv_occ[r]} of group {self.rdv_gid[r]} "
                        f"mixes collective kinds "
                        f"({'/'.join(sorted(kinds))}): members disagree "
                        f"on the operation", self.sync[ords].tolist())
        else:
            ords = [node]
            if joins is None:
                lo, hi = self.dep_off[node], self.dep_off[node + 1]
                joins = np.r_[self.prev[node], self.dep_guard[lo:hi]]
                ticks = self.dep_pe[lo:hi], self.dep_tick[lo:hi]
        clock = np.maximum.reduce(self.clock[self.clock_of[joins]], axis=0)
        if ticks is not None:
            np.maximum.at(clock, ticks[0], ticks[1])
        clock[self.ord_pe[ords]] = self.ord_local[ords] + 1
        if self.pieces == len(self.clock) - 1:     # a stall split one
            self.clock = np.r_[self.clock[:-1], np.zeros_like(self.clock)]
        self.clock[self.pieces] = clock
        self.clock_of[ords] = self.pieces
        self.pieces += 1
        self.need[node] = _SPENT
        need, succ, off = self.need, self.succ, self.succ_off
        for o in ords:
            p = self.ord_cell[o]
            self.cur[p] = o + 1
            arrival = [self.node_of[o + 1]] if o + 1 < self.end[p] else []
            for x in arrival + succ[off[o]:off[o + 1]]:
                need[x] -= 1
                if not need[x]:
                    self.ready.append(x)

    def _stall(self, blocked: list[int]) -> None:
        """Nothing is ready: report a rendezvous a finished member
        abandoned, else a cycle at the lowest blocked cell, and force
        that on."""
        for p in blocked:
            r = self.node_of[self.cur[p]] - self.S
            if r < 0:
                continue
            ords = self._arrived(r)
            arrived = sorted(self.ord_cell[o] for o in ords)
            finished = [m for m in self.groups.members(self.rdv_gid[r])
                        if m not in arrived and self.cur[m] == self.end[m]]
            if finished:
                cls = "reduction" if self.rdv_cls[r] else "barrier"
                self._report(
                    f"{cls.upper()}-MISMATCH",
                    f"cells {arrived} reach {cls} #{self.rdv_occ[r]} of "
                    f"group {self.rdv_gid[r]}, but cells {finished} finish "
                    f"their programs without it — group members disagree "
                    f"on the collective sequence", self.sync[ords].tolist())
                self._complete(self.S + r)
                return
        o = self.cur[blocked[0]]
        row = int(self.sync[o])
        self._report("SYNC-STALL", f"cell {blocked[0]} blocks at "
                     f"{EventKind(int(self.kind[row])).name} (seq "
                     f"{self.seq[row]}) inside a synchronization cycle: no "
                     f"cell can make progress", [row])
        if self.node_of[o] >= self.S:       # goes with who arrived
            self._complete(self.node_of[o])
        elif self.kind[row] == int(EventKind.RECV):   # nothing joined
            self._complete(o, self.prev[o:o + 1])
        else:
            # A wait joins the increments processed so far: those whose
            # guard (the sync row before them) has completed.
            w = int(np.searchsorted(self.waits, row))
            self.forced.append(w)
            first = int(self.wait_first[w])
            rows = self.inc_row[first:first + int(self.wait_need[w])]
            guards = self._guard(rows)
            done = (guards < 0) | (self.clock_of[guards] >= 0)
            self._complete(o, np.r_[self.prev[o], guards[done]],
                           (self.pe[rows[done]], self.local[rows[done]] + 1))

    def _result(self) -> HBResult:
        # A row's clock is its last sync row's (itself, if it is one).
        row_clock = self.clock_of[self._guard(np.arange(len(self.kind)),
                                              "right")]
        # An increment's covering wait: of the satisfied waits on its
        # instance released normally, the first in issue order to reach
        # its position.
        covers = self.satisfied.copy()
        covers[self.forced] = False
        rows = self.waits[covers]
        group = np.searchsorted(self.inc_ids, self.block["flag"][rows])
        order = np.lexsort((rows, self.seq[rows], group))
        span = len(self.inc_row) + 1
        reach = np.maximum.accumulate(
            group[order] * span + self.wait_target[covers][order])
        inc_group = np.repeat(np.arange(len(self.inc_ids)), self.inc_count)
        want = inc_group * span + np.arange(len(inc_group)) + 1 - np.repeat(
            self.inc_first, self.inc_count)
        at = np.searchsorted(reach, want)          # len(reach): the pads
        found = np.r_[reach, -1][at]
        hit = (found >= want) & (found // span == inc_group)
        inc_cover = np.where(hit, np.r_[rows[order], -1][at], -1)
        return HBResult(self, self.clock, row_clock, inc_cover)


def hb_report(trace: Any, subject: str) -> tuple[HBResult, CheckReport]:
    """Convenience: build happens-before and wrap its diagnostics."""
    hb = build_happens_before(trace)
    return hb, CheckReport(subject=subject, diagnostics=list(hb.diagnostics))
