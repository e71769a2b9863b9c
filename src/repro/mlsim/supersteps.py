"""The superstep step of the MLSim replay: the rows between whole-machine
collectives replayed a superstep at a time, on one float where that is
exact and in array operations over all PEs elsewhere.

A superstep is every PE's stretch of local rows (COMPUTE, RTSYS, CREG_*,
PHASE and the robustness instants) closed by a whole-machine collective:
a BARRIER, GOP or VGOP of all ``num_pes`` PEs with the same kind, group
and generation on every PE.  A chain is a maximal run of consecutive
supersteps (``engine_soa._find_chains`` finds them with array
operations).  :class:`Supersteps` plans all chains of a trace once — the
local rows laid out as columns over the PE axis, padded where a PE has
fewer — :class:`Chain` is one chain's part of that plan, and
:class:`ChainCosts` holds one preset's costs of those rows and replays a
chain.

The loop of :func:`repro.mlsim.engine_soa.replay_columns` enters a chain
at the release of the collective that opens it.  Every other PE is then
parked there, in arrival order, and none is runnable; until the chain's
last collective no PE depends on another except through the releases.
So the step advances every PE at once, superstep by superstep, and
leaves every float and all scheduler state bit for bit as the loop
would:

* the clock takes the pending theft, the local rows' costs and the
  barrier library time in row order, column by column; the overhead,
  execution, RTSYS and idle buckets, once the releases are known, are
  one sequential ``np.add.accumulate`` per chain.  A PE with fewer local
  rows is padded with ``0.0``: ``x + 0.0 == x`` for these non-negative
  sums;
* a release is the latest arrival plus the ``f0`` of the row of the PE
  that arrives last; a reduction member is busy for ``min(max(release -
  clock, 0), f1)`` and idles up to the release;
* the loop visits the PEs of a chain in a rotation: the PE that releases
  a collective runs on and arrives first at the next one, then the
  parked PEs in the order they arrived.  Clocks do not depend on that
  order; the barrier waits are returned in it, as one array the loop
  keeps at its place among its own waits, so that the barrier-wait
  histogram, built once after the pass, sums them in visit order.

Most supersteps are stepped on one float.  A superstep is *scalar* when
its start is the release on every PE and its clock columns vary across
PEs in at most one column: its next release is the current one folded,
column by column, with each column's largest addend over the PEs, plus
the tail.  That is exact:

(a) A release is never below an arrival: it is the latest arrival plus
    the ``f0`` of a collective, which is non-negative.  So a barrier's
    start, ``max(clock, release)``, is the release on every PE, and
    ``max(release - clock, 0)`` is ``release - clock``.  (A negative
    ``f0`` — a malformed trace's negative size — shows as a release
    below the latest arrival, and that superstep is not scalar.)
(b) ``fl(x + c)`` is monotone in ``x`` and in ``c``.  With every PE
    starting at the release and one column varying, the latest arrival
    is the fold with that column's maximum, and the least the fold with
    each column's minimum (a lower bound whatever the columns).
(c) A reduction's start is the release on every PE whenever every
    arrival is at least half the release: by Sterbenz's lemma
    ``release - arrival`` is then exact, so ``arrival + min(release -
    arrival, f1) <= release``.  With the least arrival a float, so is
    the check.

The other supersteps are *vector* ones, array operations over the PEs
as above: the first (per-PE clocks, pending theft), one with two or
more varying columns, and a reduction whose check fails, which first
materializes the arrivals of the scalar superstep before it.  After the
loop the scalar supersteps' arrivals are one pass, an array operation
per column position, and the buckets, barrier waits and the rest follow
from the arrivals and releases of all supersteps.

The step stops at the release of the chain's last collective: cursors at
that collective's rows, attempted, every PE's rendezvous record that
collective's, generation counters advanced, the PE that released it
first in the runnable deque and the parked ones behind it, theft
charged.  Under link contention or a timeline the loop declines the
step and replays the rows one by one.  The engine imports this module
only for a trace that has chains.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.mlsim.engine_soa import _BLOCK
from repro.trace.events import EventKind
from repro.trace.soa import TraceColumns


class Supersteps:
    """The preset-independent plan of every chain of one trace.

    ``rows`` (``n x c``) are the whole-machine collectives' rows per PE;
    a chain spans collectives ``a..b`` of them.  Superstep ``j`` (closed
    by collective ``j``) adds its clock addends as the columns
    ``start[j]:start[j] + width[j]`` of one ``(ncols, n)`` layout shared
    by all chains: each PE's timed local rows in order (``cells``: flat
    positions, ``cell_rows``: their rows), padded, then one column of
    barrier library time if collective ``j`` is a barrier (``lib``).
    The buckets a chain leaves — overhead, execution, RTSYS, idle, one
    block of ``n`` columns each — are one sequential sum over the rows
    of a ``(nsums, 4n)`` layout: per chain an initial row (the PEs'
    buckets), then per superstep the row of the collective it follows
    (reduction busy time, idle time; the step fills it), the pending
    theft before the first, and its clock columns, holding a CREG row's
    or the library's time as overhead, a COMPUTE row's as execution and
    an RTSYS row's as RTSYS (``sums``: each cell's flat position there,
    ``lib_sums``: the library's).  Rows are trace rows; ``at`` is every
    chain (:class:`Chain`) by the position of its opening collective on
    each PE in the stepped replay's numbering (``open_at``, given by the
    index, as is ``close_at``, the positions of its closing ones).
    """

    __slots__ = ("rows", "at", "chains", "cell_rows", "cells", "sums",
                 "creg", "lib", "lib_sums", "ncols", "nsums")

    def __init__(self, columns: TraceColumns, rows: np.ndarray,
                 firsts: np.ndarray, lasts: np.ndarray, open_at: np.ndarray,
                 close_at: np.ndarray) -> None:
        n, c = rows.shape
        self.rows = rows
        kinds = columns.kind[rows[0]]
        barrier = kinds == int(EventKind.BARRIER)
        member = np.zeros(c + 1, dtype=np.int64)
        member[firsts + 1] += 1
        member[lasts + 1] -= 1
        inside = np.cumsum(member[:-1]) > 0       # superstep j in a chain
        opening = np.zeros(c, dtype=bool)
        opening[firsts + 1] = True
        # A timed row's position among the collectives' rows (PE-major,
        # so ascending), the count of them before it, is its PE and the
        # superstep it is in: pe * c + j.
        blocks = _BLOCK.take(columns.kind)
        timed = np.flatnonzero(blocks >= 0)
        collective = np.zeros(len(blocks), dtype=bool)
        collective[rows.ravel()] = True
        pos = np.cumsum(collective).take(timed)
        pe = pos // c
        step = pos - pe * c
        kept = inside.take(step)
        self.cell_rows = timed[kept]
        pos, pe, step = pos[kept], pe[kept], step[kept]
        per = np.bincount(pos, minlength=n * c)
        rank = np.arange(len(pos)) - (np.cumsum(per) - per)[pos]
        width = per.reshape(n, c).max(axis=0) + (barrier & inside)
        start = np.cumsum(width) - width
        self.ncols = int(width.sum())
        col = start[step] + rank
        self.cells = col * n + pe
        lib = np.flatnonzero(barrier & inside)
        lib_cols = start[lib] + width[lib] - 1
        self.lib = (lib_cols[:, None] * n + np.arange(n)).ravel()
        # The sums layout: per superstep the collective's row (after
        # the initial row, before the theft, for the first), then the
        # columns.
        head = 1 + 2 * opening
        length = (head + width) * inside
        sum_start = np.cumsum(length) - length
        finish = sum_start + opening
        col_sum = np.repeat(sum_start + head - start, width) \
            + np.arange(self.ncols)
        self.nsums = int(length.sum())
        block = blocks.take(self.cell_rows).astype(np.int64)
        self.creg = block == 0
        self.sums = col_sum.take(col) * 4 * n + block * n + pe
        self.lib_sums = (col_sum[lib_cols][:, None] * 4 * n
                         + np.arange(n)).ravel()
        # Per chain: the generations its collectives 1..m advance, per
        # (class, group).
        code = 2 * columns.group[rows[0]] + barrier
        pairs = sorted(set(code.tolist()))
        pair = np.searchsorted(pairs, code)
        seen = np.zeros((len(pairs), c + 1), dtype=np.int64)
        seen[pair, np.arange(1, c + 1)] = 1
        seen = np.cumsum(seen, axis=1)
        advanced = (seen[:, lasts + 1] - seen[:, firsts + 1]).T.tolist()
        keys = [(bool(key & 1), key >> 1) for key in pairs]
        self.chains: list[Chain] = []
        self.at: dict[int, Chain] = {}
        for a, b, opens, close, counts in zip(
                firsts.tolist(), lasts.tolist(), open_at.T.tolist(),
                close_at.T.tolist(), advanced):
            chain = Chain(n, a, b, close, barrier, start, width, sum_start,
                          finish, length)
            chain.gens = [(*key, k) for key, k in zip(keys, counts) if k]
            self.chains.append(chain)
            self.at.update(dict.fromkeys(opens, chain))


class Chain:
    """One chain of ``m`` supersteps: collectives ``a..b`` of the plan's
    (:class:`Supersteps`) whole-machine collectives, the step finishing
    ``a..b - 1`` and the loop ``b``.

    ``bounds`` are each superstep's first and stop clock column, as two
    lists (``lo``, ``width``: as arrays); ``sums`` the chain's
    rows of the sums layout and ``finish`` the collectives' rows within
    them (``waits``: a barrier's, for the barrier-wait metric, with
    ``wait_order`` the positions in the arrival order at the chain's
    opening of the PEs in the order the loop would finish that barrier);
    ``tail`` the collectives 1..m and the position in that arrival order
    of the PE that arrives last at each.  ``close`` are the last one's
    positions per PE in the stepped replay's numbering, where the step
    leaves the cursors; ``gens`` the
    generations the chain's collectives advance.
    """

    __slots__ = ("n", "m", "a", "close", "barrier", "bounds",
                 "lo", "width", "sums", "finish", "waits", "wait_order",
                 "tail", "gens")
    gens: list[tuple[bool, int, int]]

    def __init__(self, n: int, a: int, b: int, close: list[int],
                 barrier: np.ndarray, start: np.ndarray, width: np.ndarray,
                 sum_start: np.ndarray, finish: np.ndarray,
                 length: np.ndarray) -> None:
        m = b - a
        self.n, self.m, self.a = n, m, a
        self.close = close
        self.barrier = barrier[a:b].tolist()
        self.lo, self.width = start[a + 1:b + 1], width[a + 1:b + 1]
        self.bounds = (self.lo.tolist(), (self.lo + self.width).tolist())
        base = int(sum_start[a + 1])
        self.sums = (base, int(sum_start[b] + length[b]))
        self.finish = finish[a + 1:b + 1] - base
        self.waits = np.flatnonzero(barrier[a:b])[:, None]
        self.wait_order = (np.arange(n) - self.waits - 1) % n
        steps = np.arange(1, m + 1)
        self.tail = (a + steps, (n - 1 - steps) % n)


class ChainCosts:
    """One preset's costs of the chains' local rows (each the loop's: a
    row's ``f0``, or the communication-register access time) laid out as
    the plan says, the collectives' ``f0`` and ``f1`` per PE, and the
    step; ``at`` is the plan's chains by opening row.  Per clock column,
    ``high`` and ``low`` are its largest and least addend over the PEs
    and ``varying[c]`` counts the columns before ``c`` whose addends
    differ between PEs."""

    __slots__ = ("at", "clock", "sums", "f0", "f1", "high", "low",
                 "varying")

    def __init__(self, plan: Supersteps, costs: tuple, barrier_lib: float,
                 creg_access: float) -> None:
        f0, f1 = costs[0], costs[1]
        n = plan.rows.shape[0]
        self.at = plan.at
        values = np.where(plan.creg, creg_access, f0.take(plan.cell_rows))
        clock = np.zeros(plan.ncols * n)
        clock[plan.cells] = values
        clock[plan.lib] = barrier_lib
        self.clock = clock.reshape(plan.ncols, n)
        by_pe = self.clock.T.copy()     # reduced faster along its rows
        high, low = by_pe.max(axis=0), by_pe.min(axis=0)
        self.high, self.low = high.tolist(), low.tolist()
        self.varying = np.cumsum(np.append(0, high != low)).tolist()
        sums = np.zeros(plan.nsums * 4 * n)
        sums[plan.sums] = values
        sums[plan.lib_sums] = barrier_lib
        self.sums = sums.reshape(plan.nsums, 4 * n)
        self.f0 = f0.take(plan.rows.T)
        self.f1 = f1.take(plan.rows.T)

    def replay(self, chain: Chain, pe: int, rec: list, state: list,
               theft: list, rec_of: list, gens: tuple, ngroups: int,
               runnable: deque, queued: set,
               collect: bool) -> np.ndarray | None:
        """Replay ``chain`` from the release of its opening collective by
        ``pe`` (``rec`` its rendezvous record, ``gens`` the barrier and
        reduction generation counters) on the loop's state; return the
        barrier waits in the loop's order (``collect``), else ``None``."""
        n, m, a = chain.n, chain.m, chain.a
        clock, f1 = self.clock, self.f1
        high, low, varying = self.high, self.low, self.varying
        order = [*rec[3], pe]       # arrival order
        rec[3] = None
        ranks = np.array(order)
        now = list(zip(*state))     # cursor, clock, overhead, ... per PE
        # The PE that releases a collective arrives first at the next
        # one: the arrival order rotates by one per collective.
        rows, at = chain.tail
        tail = self.f0[rows, ranks[at]].tolist()
        pending = np.array(theft)
        # The releases, superstep by superstep.  A scalar superstep
        # starts at the release on every PE and varies in at most one
        # column: its latest and least arrival (``top``, ``least``) are
        # floats, its arrivals (``clk`` None) follow after the loop.  A
        # vector one keeps its arrivals, by collective, in ``arrivals``.
        maximum, minimum = np.maximum, np.minimum
        release = rec[2]
        clk = np.array(now[1])
        arrivals = {0: clk}
        releases = [release]
        scalar: list[int] = []      # the scalar supersteps
        begins: list[float] = []    # and their starts
        top = least = 0.0
        for s, lo, hi, bar in zip(range(m), *chain.bounds, chain.barrier):
            if not s or top > release:
                even = False        # per-PE clocks and theft; see (a)
            elif bar:
                even = True
            else:                   # (c)
                even = 2.0 * (least if clk is None
                              else float(clk.min())) >= release
            if even and varying[hi] - varying[lo] < 2:
                top = least = release           # (b)
                for c in range(lo, hi):
                    top += high[c]
                    least += low[c]
                clk = None
                scalar.append(s)
                begins.append(release)
            else:
                if even:
                    clk = np.full(n, release)
                else:
                    if clk is None:
                        clk = arrivals[s] = self._arrivals(
                            chain, scalar[-1:], begins[-1:])[0]
                        del scalar[-1], begins[-1]
                    if bar:
                        clk = maximum(clk, release)
                    else:
                        clk = maximum(clk + minimum(
                            maximum(release - clk, 0.0), f1[a + s]),
                            release)
                    if not s:
                        clk = clk + pending
                for c in range(lo, hi):
                    clk = clk + clock[c]
                arrivals[s + 1] = clk
                top = max(clk.tolist())
            release = top + tail[s]
            releases.append(release)
        # What the collectives leave in the buckets follows from the
        # arrivals and releases.  A barrier's f1 is 0.0: no busy time,
        # its idle time the wait.
        arrive = np.empty((m + 1, n))
        if scalar:
            arrive[np.array(scalar) + 1] = self._arrivals(chain, scalar,
                                                          begins)
        arrive[list(arrivals)] = list(arrivals.values())
        clk = arrive[m]
        arrive = arrive[:m]
        free = np.array(releases[:-1])[:, None]
        wait = maximum(free - arrive, 0.0)
        busy = minimum(wait, f1[a:a + m])
        sums = self.sums[chain.sums[0]:chain.sums[1]].copy()
        sums[chain.finish, :n] = busy
        sums[chain.finish, 3 * n:] = maximum(free - (arrive + busy), 0.0)
        sums[0] = now[2] + now[4] + now[5] + now[6]
        sums[2, :n] = pending
        waits = None
        if collect and len(chain.waits):
            waits = wait[chain.waits, ranks[chain.wait_order]].ravel()
        np.add.accumulate(sums, out=sums)
        over, ex, rt, bid = sums[-1].reshape(4, n).tolist()
        for st, i, c, o, x, r, d in zip(state, chain.close, clk.tolist(),
                                        over, ex, rt, bid):
            st[:] = i, c, o, True, x, r, d
        theft[:] = [0.0] * n
        rec_of[:] = [[n, top, release, None]] * n
        for is_bar, gid, count in chain.gens:
            counters = gens[0] if is_bar else gens[1]
            counters[gid::ngroups] = [counters[gid] + count] * n
        # The last arrival releases the closing collective and runs on,
        # the others behind it in arrival order.
        turn = (m + 1) % n
        after = order[-turn:] + order[:-turn] if turn else order
        runnable.extend(after)
        queued.update(after)
        return waits

    def _arrivals(self, chain: Chain, steps: list[int],
                  begins: list[float]) -> np.ndarray:
        """The PEs' arrivals at the end of supersteps ``steps`` of
        ``chain`` started at ``begins`` on every PE: each start plus its
        clock columns in row order, one array operation per column
        position over the supersteps that have it."""
        lo, width = chain.lo[steps], chain.width[steps]
        clk = np.repeat(np.array(begins)[:, None], chain.n, axis=1)
        for w in range(int(width.max())):
            live = width > w
            clk[live] += self.clock[lo[live] + w]
        return clk

