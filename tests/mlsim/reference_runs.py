"""The per-run planner of the MLSim run step, kept as an oracle.

``repro.mlsim.runs.Runs`` plans every run of a trace in one pass of
array operations over all of their rows.  Until then each run was
planned on its own, by :class:`Run` below (``Run.__init__`` in the
index, ``Run.plan_links`` with the link plan): a few dozen numpy calls
per run.  ``tests/mlsim/test_run_plan.py`` holds the one-pass plan to
this one, field by field.
"""

from __future__ import annotations

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
