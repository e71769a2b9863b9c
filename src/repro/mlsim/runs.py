"""The run step of the MLSim replay: a stretch of consecutive PUT/GET
rows of one PE replayed in array operations.

A run is a maximal stretch of at least ``engine_soa._RUN_MIN`` such rows
(the index finds them; a GET a PE sends itself ends one, because its
reply takes the channel its request just took).  :class:`Run` plans one
once per trace — rows, channels, flag updates, theft and DMA targets,
link charges: nothing that depends on the preset — and
:class:`RunCosts` holds one preset's per-row costs and replays a run in
about 45 numpy and container calls, where the loop of
:func:`repro.mlsim.engine_soa.replay_columns` pays about 1.45 µs per
row.  The step leaves every float and all scheduler state bit for bit
as the loop's rows would:

* the clock and the overhead are one sequential ``np.add.accumulate``
  over the interleaved pending-theft and CPU addends;
* FIFO clamps are ``np.maximum.accumulate`` per channel from the
  channel's ``chan_last``, and a GET reply departing before the
  channel's last departure keeps the out-of-order rule (:func:`fifo`);
* flag times are merged per flag, and waiters are woken in the order
  the loop's ``record_flag`` would wake them;
* theft per partner, DMA and link busy time are added in row order
  (``np.add.at`` is sequential); bytes, frames and message counts come
  from the plan.

The loop reaches a run through one opcode at its first row; under link
contention or a timeline it declines the step and replays the rows.
The engine imports this module only for a trace that has runs.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.trace.events import EventKind
from repro.trace.soa import TraceColumns


def _slots(values: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The distinct values in ascending order, and each value's position
    among them in the smallest integer type: ``np.unique(...,
    return_inverse=True)`` without a sort (a run has a handful of
    distinct partners and links, and its plan stays while the trace
    does)."""
    distinct = sorted(set(values.tolist()))
    slot = np.searchsorted(np.array(distinct, dtype=values.dtype), values)
    return distinct, slot.astype(np.min_scalar_type(len(distinct)))


def _small(positions: np.ndarray) -> np.ndarray:
    """``positions`` in the smallest integer type that holds them."""
    top = int(positions.max()) if len(positions) else 0
    return positions.astype(np.min_scalar_type(top))


class Run:
    """The preset-independent plan of one run.

    Row positions are relative to ``start``; ``slice(None)`` selects
    every row.  ``gets``, ``sends`` and ``recvs`` are the GET rows and
    the rows with a send or a receive flag (``None``: none).  ``chans``
    pairs each partner with the rows whose request (PUT or GET) takes
    its channel and the positions in ``gets`` whose replies take the
    channel back (``None``: no GET to it).  ``flags`` holds per flag id
    the positions of its updates in the send-flag times followed by the
    receive-flag times; ``flag_ids`` is the flag of every update in
    update order (a row's send flag before its receive flag).  ``theft``
    names the partners other than the PE and the slot of each row
    charged to one (``None``: one partner); ``dma`` the PE (PUT) or
    partner (GET) whose DMA each row keeps busy; ``links``, set with the
    trace's link plan (:meth:`plan_links`), the link charges.
    ``self_puts`` are the (absolute) rows of PUTs the PE sends itself,
    whose receive theft stays pending on it.
    """

    __slots__ = ("start", "stop", "pe", "messages", "nbytes", "gets",
                 "chans", "sends", "recvs", "flags", "flag_ids", "theft",
                 "dma", "self_puts", "links")
    theft: tuple | None
    links: tuple

    def __init__(self, columns: TraceColumns, start: int, stop: int,
                 pe: int) -> None:
        self.start, self.stop, self.pe = start, stop, pe
        rows = stop - start
        every = slice(None)
        partner = columns.partner[start:stop]
        is_get = columns.kind[start:stop] == int(EventKind.GET)
        gets = np.flatnonzero(is_get)
        self.gets = gets if len(gets) else None
        self.messages = rows + len(gets)
        self.nbytes = int(columns.size[start:stop].sum())
        partners, slot = _slots(partner)
        self.chans = []
        requests: slice | np.ndarray
        replies: slice | np.ndarray | None
        for k, q in enumerate(partners):
            if len(partners) == 1:
                requests, replies = every, every if len(gets) else None
            else:
                requests = np.flatnonzero(slot == k)
                replies = np.flatnonzero(slot[gets] == k)
                if not len(replies):
                    replies = None
            self.chans.append((q, requests, replies))
        send_flag = columns.send_flag[start:stop]
        recv_flag = columns.recv_flag[start:stop]
        sends = np.flatnonzero(send_flag)
        recvs = np.flatnonzero(recv_flag)
        self.sends = sends if len(sends) else None
        self.recvs = recvs if len(recvs) else None
        if np.array_equal(recvs, gets):
            self.recvs = self.gets
        position = np.full(2 * rows, -1)
        position[2 * sends] = np.arange(len(sends))
        position[2 * recvs + 1] = len(sends) + np.arange(len(recvs))
        order = position[position >= 0]
        self.flag_ids = gids = np.concatenate(
            (send_flag[sends], recv_flag[recvs]))[order]
        self.flags = [(gid, order[gids == gid])
                      for gid in sorted(set(gids.tolist()))]
        others = partner != pe
        self.theft = None
        if others.any():
            owed, owed_slot = _slots(partner[others])
            self.theft = (owed,
                          every if others.all() else np.flatnonzero(others),
                          owed_slot if len(owed) > 1 else None)
        self.dma = _slots(np.where(is_get, partner, pe))
        self.self_puts = start + np.flatnonzero(~is_get & ~others)
        self.links = ()

    def plan_links(self, columns: TraceColumns, plan: list) -> None:
        """The run's link charges in the loop's order: ``(lids, slot,
        source, bytes, frames)``, with ``slot`` the position in ``lids``
        of each charge and ``source`` its wire time's position in the
        rows' request wires followed by their reply wires."""
        start, stop = self.start, self.stop
        rows = stop - start
        # Each row charges its request route, then (GET) its reply
        # route; routes are per (partner, kind), so expand those.
        is_get = columns.kind[start:stop] == int(EventKind.GET)
        kinds, kind_of = _slots(2 * columns.partner[start:stop] + is_get)
        routes: list[tuple[int, ...]] = []
        for k in range(len(kinds)):
            first = int(np.argmax(kind_of == k))
            route = plan[start + first]
            routes.extend(route if is_get[first] else (route, ()))
        segment = np.empty(2 * rows, dtype=np.int64)
        segment[0::2] = 2 * kind_of.astype(np.int64)
        segment[1::2] = segment[0::2] + 1
        lengths = np.array([len(r) for r in routes], dtype=np.int64)
        offsets = np.cumsum(lengths) - lengths
        flat = np.array([lid for r in routes for lid in r], dtype=np.int64)
        counts = lengths[segment]
        owner = np.repeat(np.arange(2 * rows), counts)
        within = np.arange(len(owner)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        lids = flat[offsets[segment[owner]] + within]
        row, reply = np.divmod(owner, 2)
        carried = np.where(reply.astype(bool) | ~is_get[row],
                           columns.size[start:stop][row], 0)
        uniq, slot = _slots(lids)
        self.links = (
            uniq, slot, _small(row + rows * reply),
            np.bincount(slot, weights=carried,
                        minlength=len(uniq)).astype(np.int64).tolist(),
            np.bincount(slot, minlength=len(uniq)).tolist())


class RunCosts:
    """One preset's per-row costs of PUT/GET rows as the run step reads
    them, each the loop's expression (a PUT's ``f*`` slots and a GET's
    differ: see ``engine_soa._Program``), and the step itself.

    ``body`` interleaves a row's CPU time with the theft it leaves
    pending for the next row: the addends of the PE's clock, in order.
    ``f1`` (a PUT's drain, a GET's service) and ``f2`` (a GET's reply
    wire) are the program's slots as they are.
    """

    __slots__ = ("dma_setup", "send_flag_tail", "body", "wire", "send",
                 "recv", "owed", "f1", "f2")

    def __init__(self, kind: np.ndarray, runs: dict, costs: tuple,
                 dma_setup: float, send_flag_tail: float,
                 send_theft: float, get_send_cpu: float) -> None:
        f0, f1, f2, f3, f4, f5 = costs
        self.dma_setup = dma_setup
        self.send_flag_tail = send_flag_tail
        put = kind == int(EventKind.PUT)
        pending = np.where(put, 0.0 + send_theft, 0.0 + f5)
        mine = np.concatenate([run.self_puts for run in runs.values()])
        pending[mine] += f4[mine]
        body = np.empty(2 * len(put))
        body[0::2] = np.where(put, f0, get_send_cpu)
        body[1::2] = pending
        self.body = body
        self.wire = np.where(put, f2, f0)           # request wire
        self.send = np.where(put, f1, 0.0)          # before the send tail
        self.recv = np.where(put, f3, f4)           # after the arrival
        self.owed = np.where(put, f4, f3)           # charged to the partner
        self.f1, self.f2 = f1, f2

    def replay(self, run: Run, clk: float, over: float, th: float, n: int,
               chan_last: dict, theft: list, flag_times: dict,
               flag_waiters: dict, queued: set, runnable: deque,
               metrics: tuple | None) -> tuple[float, float, float]:
        """Replay ``run`` on the loop's state (``n`` PEs; ``metrics`` the
        DMA and link accumulators, or ``None``): returns the PE's clock,
        overhead and pending theft after its last row."""
        a, b, pe = run.start, run.stop, run.pe
        f1, f2 = self.f1, self.f2
        body = self.body[2 * a:2 * b - 1]
        # The clock and the overhead take the same addends: the theft
        # pending at each row, then the row's CPU time.
        clocks = np.add.accumulate(np.concatenate(((clk, th), body)))
        over = np.add.accumulate(np.concatenate(((over, th), body)))[-1]
        depart = clocks[2::2] + self.dma_setup
        arrival = depart + self.wire[a:b]
        for q, requests, _ in run.chans:
            key = pe * n + q
            arrival[requests], chan_last[key] = fifo(
                depart[requests], arrival[requests], chan_last.get(key))
        gets = run.gets
        if gets is not None:
            # A GET's reply leaves the partner when its request has been
            # served, and its receive flag waits for the reply.
            reply_depart = arrival[gets] + f1[a:b][gets]
            reply = reply_depart + f2[a:b][gets]
            for q, _, replies in run.chans:
                if replies is not None:
                    key = q * n + pe
                    reply[replies], chan_last[key] = fifo(
                        reply_depart[replies], reply[replies],
                        chan_last.get(key))
            arrival[gets] = reply
        if run.flags:
            parts = []
            if run.sends is not None:
                parts.append((depart[run.sends]
                              + self.send[a:b][run.sends])
                             + self.send_flag_tail)
            if run.recvs is not None:
                parts.append(arrival[run.recvs]
                             + self.recv[a:b][run.recvs])
            times = parts[0] if len(parts) == 1 else np.concatenate(parts)
            woken = []
            for gid, updates in run.flags:
                known = flag_times.setdefault(gid, [])
                before = len(known)
                known.extend(times[updates].tolist())
                known.sort()
                waiters = flag_waiters.get(gid)
                if waiters:
                    # record_flag wakes a waiter at the update that
                    # brings the flag to its target.
                    ranks = np.flatnonzero(run.flag_ids == gid).tolist()
                    still = []
                    for order, (wpe, target) in enumerate(waiters):
                        if target - before <= len(ranks):
                            woken.append(
                                (ranks[target - before - 1], order, wpe))
                        else:
                            still.append((wpe, target))
                    flag_waiters[gid] = still
            for _, _, wpe in sorted(woken):
                if wpe not in queued:
                    queued.add(wpe)
                    runnable.append(wpe)
        if run.theft is not None:
            owed, rows, slot = run.theft
            _add_in_order(theft, owed, slot, self.owed[a:b][rows])
        if metrics is not None:
            dma_busy, link_busy, link_bytes, link_frames = metrics
            _add_in_order(dma_busy, *run.dma, f1[a:b])
            lids, slot, source, nbytes, frames = run.links
            if lids:
                _add_in_order(link_busy, lids, slot, np.concatenate(
                    (self.wire[a:b], f2[a:b]))[source])
                for lid, nb, nf in zip(lids, nbytes, frames):
                    link_bytes[lid] += nb
                    link_frames[lid] += nf
        return (float(clocks[-1]), float(over),
                float(self.body[2 * b - 1]))


def fifo(depart: np.ndarray, raw: np.ndarray,
         last: tuple[float, float] | None) -> tuple[np.ndarray, tuple]:
    """The loop's FIFO clamp over one channel's transfers of a run, in
    row order: arrivals and the channel's new ``chan_last``.

    A transfer departing no earlier than every one before it (and than
    the channel's last) queues behind the latest arrival so far; one
    departing earlier is out of order: it keeps its raw arrival and
    leaves the channel as it was.
    """
    if last is None:
        last = (-math.inf, 0.0)     # the first arrival clamps at zero
    keep = depart >= np.maximum.accumulate(depart)
    if depart[0] < last[0]:
        keep &= depart >= last[0]
    if keep.all():
        arrival = np.maximum.accumulate(
            np.concatenate(((last[1],), raw)))[1:]
        return arrival, (float(depart[-1]), float(arrival[-1]))
    kept = np.flatnonzero(keep)
    if not len(kept):
        return raw, last
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
