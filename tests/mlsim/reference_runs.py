"""The per-run planner of the MLSim run step, kept as an oracle.

``repro.mlsim.runs.Runs`` plans every run of a trace in one pass of
array operations over all of their rows.  Until then each run was
planned on its own, by :class:`Run` below (``Run.__init__`` in the
index): a few dozen numpy calls per run.
``tests/mlsim/test_run_plan.py`` holds the one-pass plan to this one,
field by field.
"""

from __future__ import annotations

import numpy as np

from repro.trace.events import EventKind
from repro.trace.soa import TraceColumns


def _slots(values: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The distinct values in ascending order, and each value's position
    among them in the smallest integer type: ``np.unique(...,
    return_inverse=True)`` without a sort (a run has a handful of
    distinct partners, and its plan stays while the trace
    does)."""
    distinct = sorted(set(values.tolist()))
    slot = np.searchsorted(np.array(distinct, dtype=values.dtype), values)
    return distinct, slot.astype(np.min_scalar_type(len(distinct)))


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
    charged to one (``None``: one partner).
    ``self_puts`` are the (absolute) rows of PUTs the PE sends itself,
    whose receive theft stays pending on it.
    """

    __slots__ = ("start", "stop", "pe", "gets", "chans", "sends", "recvs",
                 "flags", "flag_ids", "theft", "self_puts")
    theft: tuple | None

    def __init__(self, columns: TraceColumns, start: int, stop: int,
                 pe: int) -> None:
        self.start, self.stop, self.pe = start, stop, pe
        rows = stop - start
        every = slice(None)
        partner = columns.partner[start:stop]
        is_get = columns.kind[start:stop] == int(EventKind.GET)
        gets = np.flatnonzero(is_get)
        self.gets = gets if len(gets) else None
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
        self.self_puts = start + np.flatnonzero(~is_get & ~others)
