"""The run step of the MLSim replay: a stretch of consecutive PUT/GET
rows of one PE replayed in array operations.

A run is a maximal stretch of at least ``engine_soa._RUN_MIN`` such rows
(the index finds them; a GET a PE sends itself ends one, because its
reply takes the channel its request just took).  :class:`Runs` plans
every run of a trace at once — rows, channels, flag updates and theft
targets: nothing that depends on the preset — in array operations over
the rows of all of them, keyed by run: one sort per grouping, then one
cut per field, so planning costs the runs' rows and no call per run.
:class:`RunCosts` lays out one preset's values in the order the step
reads them, every run's in one array per field, and replays a run in
about 35 profiled calls (36-39 µs), where the loop of
:func:`repro.mlsim.engine_soa.replay_columns` pays about 1.1-1.6 µs
per row.  The step leaves every float and all scheduler state bit for
bit as the loop's rows would:

* the clock and the overhead are one sequential ``np.add.accumulate``
  over the interleaved pending-theft and CPU addends;
* FIFO clamps are ``np.maximum.accumulate`` per channel from the
  channel's ``chan_last``, and a GET reply departing before the
  channel's last departure keeps the out-of-order rule (:func:`fifo`);
* flag times are merged per flag, and waiters are woken in the order
  the loop's ``record_flag`` would wake them;
* theft per partner is added in row order (``np.add.at`` is
  sequential).

What no order of the replay changes — message counts and bytes, DMA
and link busy time, link bytes and frames — the step leaves alone: the
engine sums those over the trace's rows outside the pass, in trace-row
order (PE by PE, each PE's rows in order, a GET's request before its
reply: ``engine_soa._Program.busy``).  The loop reaches a run through
one opcode at its first row, the run's one position in the stepped
replay's numbering, and moves past it as past any row; under link
contention or a timeline it declines the step and replays the rows.
The engine imports this module only for a trace that has runs.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.mlsim.engine_soa import _NEVER
from repro.trace.events import EventKind
from repro.trace.soa import TraceColumns

#: Selects every row of a run: the channel of a run with one partner.
_EVERY = slice(None)


def _small(values: np.ndarray) -> np.ndarray:
    """``values`` (not negative) in the smallest integer type that
    holds them."""
    top = int(values.max()) if len(values) else 0
    return values.astype(np.min_scalar_type(top))


def _bounds(owner: np.ndarray, count: int) -> list[int]:
    """Where the entries of each of ``count`` owners begin in ``owner``
    (ascending), then the end: owner k's are ``[b[k]:b[k + 1]]``."""
    return owner.searchsorted(np.arange(count + 1)).tolist()


def _groups(run: np.ndarray, key: np.ndarray,
            count: int) -> tuple[np.ndarray, ...]:
    """Entries grouped by ``(run, key)``, both ascending (``count``
    runs, ``key`` not negative), each group's entries in their own
    order: the entries' order, where each group begins in it (then the
    end), and each group's run and key.  One stable sort of the pair
    packed in the narrowest integer that holds it (a radix sort up to
    16 bits)."""
    span = int(key.max()) + 1 if len(key) else 1
    packed_type = np.min_scalar_type(count * span)
    packed = (run.astype(packed_type) * packed_type.type(span)
              + key.astype(packed_type))
    order = packed.argsort(kind="stable")
    packed = packed[order]
    # A group begins where the pair changes; the last edge is the end.
    change = np.ones(len(order) + 1, dtype=bool)
    np.not_equal(packed[1:], packed[:-1], out=change[1:-1])
    edges = np.flatnonzero(change)
    run, key = np.divmod(packed[edges[:-1]].astype(np.int64), span)
    return order, edges, run, key


def _distinct(run: np.ndarray, values: np.ndarray,
              count: int) -> tuple[list[int], list[int], np.ndarray]:
    """The distinct ``values`` (not negative) of each of ``count`` runs:
    all of them, run by run and ascending, where each run's begin (then
    the end), and each entry's position among its run's: one sort
    (:func:`_groups`)."""
    order, edges, owner, distinct = _groups(run, values, count)
    bounds = owner.searchsorted(np.arange(count + 1))
    slot = np.empty(len(run), dtype=np.intp)    # np.add.at's fast index
    slot[order] = (np.arange(len(owner)) - bounds[owner]).repeat(
        edges[1:] - edges[:-1])
    return distinct.tolist(), bounds.tolist(), slot


def _channels(run: np.ndarray, at: np.ndarray, partner: np.ndarray,
              got: np.ndarray, pe: np.ndarray, n: int,
              count: int) -> tuple[list, list[tuple], list[int]]:
    """Each run's lowest partner, and the channels (see :class:`Runs`)
    of the runs with more than one, all of them run by run, with where
    each run's begin (then the end).  Only those runs' entries are
    grouped, by (run, partner); the replies to each, positions among
    the run's GETs, are grouped the same way."""
    partners, first, _ = _distinct(run, partner, count)
    lowest = [partners[b] for b in first[:-1]]
    mixed = (np.diff(first) > 1)[run]
    if not mixed.any():
        return lowest, [], [0] * (count + 1)
    order, edges, crun, cq = _groups(run[mixed], partner[mixed], count)
    requests = at[mixed][order]
    got_run = run[got]
    replies = np.arange(len(got)) - np.array(_bounds(got_run, count))[got_run]
    mixed = mixed[got]
    gorder, gedges, grun, gq = _groups(got_run[mixed], partner[got][mixed],
                                       count)
    replies = replies[mixed][gorder]
    back = np.full((2, len(crun)), -1)
    back[:, np.searchsorted(crun * n + cq, grun * n + gq)] = (
        gedges[:-1], gedges[1:])
    return lowest, [
        (p * n + q, requests[lo:hi], q * n + p,
         None if rlo < 0 else replies[rlo:rhi])
        for p, q, lo, hi, rlo, rhi in zip(
            pe[crun].tolist(), cq.tolist(), edges[:-1].tolist(),
            edges[1:].tolist(), *back.tolist())
    ], _bounds(crun, count)


def _updates(columns: TraceColumns, rows: np.ndarray, run: np.ndarray,
             count: int) -> tuple:
    """The runs' flag updates (see :class:`Runs`): the entries with a
    send flag and those with a receive flag, each in order of run, flag
    id and update (a row's send flag before its receive flag), where
    each run's begin in both, every run's flags, run by run, and where
    each run's begin.  One grouping of the updates by (run, flag id):
    each group's sends and receives are then a slice of its run's."""
    flagged = np.empty(2 * len(rows), dtype=columns.send_flag.dtype)
    flagged[0::2] = columns.send_flag[rows]
    flagged[1::2] = columns.recv_flag[rows]
    update = np.flatnonzero(flagged)
    urun = run[update >> 1]
    rank = np.arange(len(update)) - np.searchsorted(
        urun, np.arange(count + 1))[urun]
    order, edges, frun, gid = _groups(urun, flagged[update], count)
    del urun, flagged
    update = update[order]
    recv = (update & 1).astype(bool)
    sent, landed = update[~recv] >> 1, update[recv] >> 1
    s, r = _bounds(run[sent], count), _bounds(run[landed], count)
    # Each group's sends and receives before it, less its run's.
    before = np.array([np.searchsorted(np.flatnonzero(~recv), edges),
                       np.searchsorted(np.flatnonzero(recv), edges)])
    start = np.array((s, r))[:, frun]
    lows, highs = before[:, :-1] - start, before[:, 1:] - start
    ranks = _small(rank[order])
    flags = [(fid, slo, shi, rlo, rhi, ranks[lo:hi])
             for fid, slo, shi, rlo, rhi, lo, hi in zip(
                 gid.tolist(), lows[0].tolist(), highs[0].tolist(),
                 lows[1].tolist(), highs[1].tolist(),
                 edges[:-1].tolist(), edges[1:].tolist())]
    return sent, landed, s, r, flags, _bounds(frun, count)


class Runs:
    """The preset-independent plan of every run of a trace.

    ``first``, ``stop`` and ``pe`` list the runs' bounds (trace rows)
    and PEs in row order; ``at`` maps a run's first row's position in
    the stepped replay's numbering (``keys``, given by the index) to the
    record the step unpacks, ``(k, a, b, chans, gets, g0, g1, sends, s0,
    s1, recvs, r0, r1, flags, owed, owed_slot, t0, t1)``:

    * ``k`` is the run's number and ``a:b`` its trace rows;
    * ``chans`` pairs each partner, ascending, with the key of the
      channel its requests take (``pe * n + partner``) and their
      positions in the run, then the key of the channel back and the
      positions in ``gets`` of the replies that take it (``None``: no
      GET to it); with one partner both select every row;
    * ``gets`` are the positions of the GET rows (``None``: none), and
      ``g0:g1`` their slice of the GET operands;
    * ``sends`` and ``recvs`` are the positions of the rows with a send
      and with a receive flag, by flag id and then by row (``None``:
      none), and ``s0:s1`` and ``r0:r1`` their slices of the flag
      operands;
    * ``flags`` holds per flag id, ascending, ``(gid, slo, shi, rlo,
      rhi, ranks)``: its updates' slices of ``sends`` and ``recvs``,
      and their ranks in the run's update order (a row's send flag
      before its receive flag);
    * ``owed`` names the partners other than the PE that rows charge
      theft to (``None``: none), ``owed_slot`` each such row's position
      among them (``None``: one partner) and ``t0:t1`` their slice of
      the theft operands.

    Operand slices index arrays over the runs' rows in run order, whose
    trace rows are ``get_rows``, ``send_rows``, ``recv_rows`` and
    ``owed_rows`` (:class:`RunCosts` reads them per preset);
    ``self_puts`` are the PUTs a PE sends itself, whose receive theft
    stays pending on it.
    """

    __slots__ = ("first", "stop", "pe", "at", "get_rows", "send_rows",
                 "recv_rows", "owed_rows", "self_puts")

    def __init__(self, columns: TraceColumns, first: np.ndarray,
                 stop: np.ndarray, pe: np.ndarray, keys: np.ndarray) -> None:
        n, count = columns.num_pes, len(first)
        length = stop - first
        total = int(length.sum())
        # Every run's rows, run by run: each entry's run, and its
        # position in the run.
        run = np.repeat(np.arange(count), length)
        at = np.arange(total) - np.repeat(np.cumsum(length) - length, length)
        rows = first[run] + at
        partner = columns.partner[rows]
        is_get = columns.kind[rows] == int(EventKind.GET)
        me = pe[run]
        self.first, self.stop, self.pe = (first.tolist(), stop.tolist(),
                                          pe.tolist())
        got = np.flatnonzero(is_get)
        self.get_rows = rows[got]
        self.self_puts = rows[~is_get & (partner == me)]
        g = _bounds(run[got], count)
        partners, chans, c = _channels(run, at, partner, got, pe, n, count)
        sent, landed, s, r, flags, f = _updates(columns, rows, run, count)
        self.send_rows, self.recv_rows = rows[sent], rows[landed]
        others = np.flatnonzero(partner != me)
        self.owed_rows = rows if len(others) == total else rows[others]
        owed, o, owed_slot = _distinct(run[others], partner[others], count)
        t = _bounds(run[others], count)
        get_at, send_at, recv_at = at[got], at[sent], at[landed]
        # Entries, not positions: those carry the run.
        if np.array_equal(landed, got):
            recv_at = get_at        # the GETs' replies raise every flag
        self.at = {}
        for k, key in enumerate(keys.tolist()):
            a, g0, g1, s0, s1, r0, r1, t0, t1 = (
                self.first[k], g[k], g[k + 1], s[k], s[k + 1], r[k],
                r[k + 1], t[k], t[k + 1])
            gets = get_at[g0:g1] if g1 > g0 else None
            if c[k + 1] == c[k]:        # one partner: every row
                p, q = self.pe[k], partners[k]
                channels = [(p * n + q, _EVERY, q * n + p,
                             None if gets is None else _EVERY)]
            else:
                channels = chans[c[k]:c[k + 1]]
            self.at[key] = (
                k, a, self.stop[k], channels, gets, g0, g1,
                send_at[s0:s1] if s1 > s0 else None, s0, s1,
                None if r1 == r0 else gets if recv_at is get_at
                else recv_at[r0:r1], r0, r1,
                flags[f[k]:f[k + 1]],
                owed[o[k]:o[k + 1]] if t1 > t0 else None,
                None if o[k + 1] - o[k] < 2 else owed_slot[t0:t1], t0, t1)


class RunCosts:
    """One preset's values as the run step reads them, and the step.

    Each value is the loop's expression (a PUT's ``f*`` slots and a
    GET's differ: see ``engine_soa._Program``).  Over every row of the
    trace: ``body`` interleaves a row's CPU time with the theft it
    leaves pending for the next row (the addends of the PE's clock, in
    order) and ``wire`` is its request wire.  Over the runs' operand
    rows (:class:`Runs`): ``reply_service`` and ``reply_wire`` of their
    GETs, the ``send`` and ``recv`` flag addends and the theft ``owed``
    to a partner.  ``pending`` is the theft each run leaves pending
    after its last row.
    """

    __slots__ = ("dma_setup", "send_flag_tail", "body", "wire",
                 "reply_service", "reply_wire", "send", "recv", "owed",
                 "pending")

    def __init__(self, kind: np.ndarray, plan: Runs, costs: np.ndarray,
                 dma_setup: float, send_flag_tail: float,
                 send_theft: float, get_send_cpu: float) -> None:
        f0, f1, f2, f3, f4, f5 = costs
        self.dma_setup = dma_setup
        self.send_flag_tail = send_flag_tail
        put = kind == int(EventKind.PUT)
        pending = np.where(put, 0.0 + send_theft, 0.0 + f5)
        mine = plan.self_puts
        pending[mine] += f4[mine]
        body = np.empty(2 * len(put))
        body[0::2] = np.where(put, f0, get_send_cpu)
        body[1::2] = pending
        self.body = body
        self.wire = np.where(put, f2, f0)
        self.reply_service = f1[plan.get_rows]
        self.reply_wire = f2[plan.get_rows]
        rows = plan.send_rows
        self.send = np.where(put[rows], f1[rows], 0.0)   # before the tail
        rows = plan.recv_rows
        self.recv = np.where(put[rows], f3[rows], f4[rows])
        rows = plan.owed_rows
        self.owed = np.where(put[rows], f4[rows], f3[rows])
        self.pending = pending[np.array(plan.stop) - 1].tolist()

    def replay(self, run: tuple, clk: float, over: float, th: float,
               chan_last: dict, theft: list, flag_times: dict,
               flag_waiters: dict, queued: set,
               runnable: deque) -> tuple[float, float, float]:
        """Replay ``run`` (a :class:`Runs` record) on the loop's state:
        returns the PE's clock, overhead and pending theft after its last
        row."""
        (k, a, b, chans, gets, g0, g1, sends, s0, s1, recvs, r0, r1, flags,
         owed, owed_slot, t0, t1) = run
        # The clock and the overhead take the same addends: the theft
        # pending at each row, then the row's CPU time.
        addends = np.empty((2, 2 * (b - a) + 1))
        addends[0, 0] = clk
        addends[1, 0] = over
        addends[:, 1] = th
        addends[:, 2:] = self.body[2 * a:2 * b - 1]
        clocks, overs = np.add.accumulate(addends, axis=1)
        depart = clocks[2::2] + self.dma_setup
        arrival = depart + self.wire[a:b]
        for key, requests, _, _ in chans:
            if requests is _EVERY:
                arrival, chan_last[key] = fifo(depart, arrival,
                                               chan_last.get(key, _NEVER))
            else:
                arrival[requests], chan_last[key] = fifo(
                    depart[requests], arrival[requests],
                    chan_last.get(key, _NEVER))
        received = None
        if gets is not None:
            # A GET's reply leaves the partner when its request has been
            # served, and its receive flag waits for the reply.
            reply_depart = arrival[gets] + self.reply_service[g0:g1]
            reply = reply_depart + self.reply_wire[g0:g1]
            for _, _, key, replies in chans:
                if replies is _EVERY:
                    reply, chan_last[key] = fifo(reply_depart, reply,
                                                 chan_last.get(key, _NEVER))
                elif replies is not None:
                    reply[replies], chan_last[key] = fifo(
                        reply_depart[replies], reply[replies],
                        chan_last.get(key, _NEVER))
            if recvs is gets:
                received = reply            # the receive flags are the GETs'
            else:
                arrival[gets] = reply
        if flags:
            sent = () if sends is None else (
                (depart[sends] + self.send[s0:s1])
                + self.send_flag_tail).tolist()
            if recvs is None:
                landed = ()
            else:
                if received is None:
                    received = arrival[recvs]
                landed = (received + self.recv[r0:r1]).tolist()
            woken = []
            for gid, slo, shi, rlo, rhi, ranks in flags:
                known = flag_times.setdefault(gid, [])
                before = len(known)
                known += sent[slo:shi]
                known += landed[rlo:rhi]
                known.sort()
                waiters = flag_waiters.get(gid)
                if waiters:
                    # record_flag wakes a waiter at the update that
                    # brings the flag to its target.
                    reached = before + len(ranks)
                    still = []
                    for order, (wpe, target) in enumerate(waiters):
                        if target <= reached:
                            woken.append(
                                (ranks[target - before - 1], order, wpe))
                        else:
                            still.append((wpe, target))
                    flag_waiters[gid] = still
            for _, _, wpe in sorted(woken):
                if wpe not in queued:
                    queued.add(wpe)
                    runnable.append(wpe)
        if owed is not None:
            _add_in_order(theft, owed, owed_slot, self.owed[t0:t1])
        return float(clocks[-1]), float(overs[-1]), self.pending[k]


def fifo(depart: np.ndarray, raw: np.ndarray,
         last: tuple[float, float]) -> tuple[np.ndarray, tuple]:
    """The loop's FIFO clamp over one channel's transfers of a run, in
    row order: arrivals and the channel's new ``chan_last``.

    A transfer departing no earlier than every one before it (and than
    the channel's last) queues behind the latest arrival so far; one
    departing earlier is out of order: it keeps its raw arrival and
    leaves the channel as it was.  ``last`` is ``engine_soa._NEVER``
    on a channel no message has taken yet.
    """
    keep = depart >= np.maximum.accumulate(depart)
    if depart[0] < last[0]:
        keep &= depart >= last[0]
    kept = np.count_nonzero(keep)
    if kept == len(keep):
        arrival = np.maximum.accumulate(
            np.concatenate(((last[1],), raw)))[1:]
        return arrival, (float(depart[-1]), float(arrival[-1]))
    if not kept:
        return raw, last
    kept = np.flatnonzero(keep)
    arrival = raw.copy()
    arrival[kept] = clamped = np.maximum.accumulate(
        np.concatenate(((last[1],), raw[kept])))[1:]
    return arrival, (float(depart[kept[-1]]), float(clamped[-1]))


def _add_in_order(totals: list, targets: list, slot: np.ndarray | None,
                  values: np.ndarray) -> None:
    """``totals[targets[slot[k]]] += values[k]`` for k in order (no
    ``slot``: one target)."""
    if slot is None:
        t = targets[0]
        totals[t] = float(np.add.accumulate(
            np.concatenate(((totals[t],), values)))[-1])
        return
    acc = np.array([totals[t] for t in targets])
    np.add.at(acc, slot, values)
    for t, v in zip(targets, acc.tolist()):
        totals[t] = v
