"""The MLSim timing engine: trace replay as a discrete-event simulation.

Each PE walks its own trace, accumulating time into the four buckets of
section 5.3.  Cross-PE interactions — flag updates from arriving
messages, barrier establishment, reductions, SEND/RECEIVE matching —
are resolved through shared registries: a PE that reaches a wait it
cannot satisfy yet *parks*; the PE whose progress satisfies the
condition wakes it.  MLSim "preserv[es] the order of message
communications and barrier synchronization between processors with a
delay parameter": per-channel FIFO clamping keeps (source, destination)
message order, which the acknowledge idiom (GET after PUT) relies on.

Two deliberate approximations, both in the spirit of a message-level
simulator:

* Receive-side software service (interrupt handling on the AP1000) is
  charged to the receiving PE as *stolen* CPU time applied at its next
  event, rather than preempting it mid-activity.
* A flag wait resumes at the time of the ``target``-th flag increment
  among those currently known; a sender processed later with an earlier
  completion time cannot move an already-resumed waiter earlier (a
  conservative, no-rollback policy).

This is the one implementation of those rules ``repro`` runs; the scalar
object-per-event engine it replaced is its oracle
(``tests/mlsim/reference_engine.py``), bit for bit.  It is laid out for
throughput:

* the trace is decoded once into flat column arrays
  (:mod:`repro.trace.soa`); per-trace structure — kind partitions, torus
  hop distances, physical link routes — is computed once and shared
  across all parameter presets of a bench grid;
* every parameter-dependent cost — the Figure 7 PUT decomposition, wire
  times, reduction durations, barrier establishment — is precomputed
  for *all* events of a kind at once with numpy expressions that
  replicate :mod:`repro.mlsim.put_model`'s float operation order
  exactly (IEEE-754 double arithmetic is deterministic given the same
  expression tree, and numpy's elementwise float64 ops produce the same
  bits as the equivalent Python float expressions);
* the remaining sequential pass — the part that carries cross-PE
  ordering: FIFO channel clamping, flag wakeups, barrier generations,
  CPU-theft application — runs over plain Python lists with no
  per-event object construction, attribute access or builtin-function
  call, and states each rule once.  A clamp is an inline comparison
  that keeps the operand ``min``/``max`` would keep on a tie, and a
  channel no message has taken yet reads as ``_NEVER`` — departed at
  ``-inf``, arrived at ``0.0`` — so the first arrival clamps at zero
  through the same comparison.  BARRIER, GOP and VGOP share one
  rendezvous (arrive, release as the last member, or park), the
  barrier's library prolog and wait sample and a reduction's busy
  share being branches on the opcode.  What remains are container
  methods (a dict probe per channel, deque and set traffic per context
  switch, an append per wait when metrics are collected) and one
  ``record_flag`` per flag update, held to a ceiling by
  ``tests/mlsim/test_replay_cost.py``;
* a run — a maximal stretch of at least ``_RUN_MIN`` consecutive
  PUT/GET rows of one PE, found with array operations — is one step of
  that pass, every run of a trace planned at once in array operations
  over their rows and applied per preset in array operations that leave
  every float and all scheduler state as the rows would
  (:mod:`repro.mlsim.runs`).  The loop reaches a run through one
  opcode at its first row; under ``link_contention`` or
  ``record_timeline`` the step declines and the rows are replayed one
  by one;
* a superstep — every PE's local rows closed by a whole-machine
  collective — is one step too, when consecutive ones form a chain of
  at least ``_CHAIN_MIN`` rows (plus ``_CHAIN_STEP`` per superstep),
  found with array operations (:mod:`repro.mlsim.supersteps`).  The
  loop enters a chain where it releases the collective that opens it:
  every other PE is parked there, and the step advances them all in
  numpy operations over the PE axis to the release of the chain's last
  collective, leaving every float and all scheduler state as the rows
  would.  It declines where the run step does;
* what no visit order can change is no part of the pass.  Message
  counts and bytes are counted from the kind partition when the trace
  is indexed.  Each PE's DMA busy time and each link's busy time,
  bytes and frames are sums over the PUT, GET and SEND rows in
  trace-row order — PE by PE, each PE's rows in order, a GET's request
  before its reply — in one ``np.bincount`` per preset
  (:meth:`_Program.busy`).  The pass keeps what only it knows: clocks,
  buckets and the flag and barrier waits in the order it visits them
  (a superstep step's as one array at its place among the loop's),
  from which :meth:`repro.obs.registry.Histogram.of` builds the two
  wait histograms once after the pass.

Scheduling replicates the oracle's runnable-deque discipline event for
event.  Every scheduling decision (park, wake, completion) is a
*structural* predicate — flag counts, arrival counts, queue membership
— never a float comparison, so wake order and therefore every float
accumulation order is identical to the oracle's, which is what
``tests/mlsim/test_soa_equivalence.py`` pins down on generated traces:
results, metrics, timelines and link contention alike.

Two optional jobs ride the same pass.  ``record_timeline`` appends every
span, packet flow and instant to plain columns keyed by event index
(:class:`repro.mlsim.timeline.Timeline` derives PEs and labels from the
index when someone reads them).  ``link_contention`` — an extension
beyond the paper's MLSim, which models the network with delay
parameters only — serializes transfers that share a physical T-net
link, one step before the FIFO clamp (``contended`` below).
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import fields
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import SimulationError
from repro.machine.config import SPARC_US_PER_FLOP
from repro.mlsim.breakdown import MLSimResult, PEBreakdown
from repro.mlsim.params import MLSimParams
from repro.mlsim.put_model import (
    get_reply_cpu_theft,
    get_reply_service_time,
    get_send_cpu_time,
    network_time,
    put_send_cpu_time,
    recv_cpu_theft,
    recv_flag_update_time,
    recv_service_time,
    send_complete_cpu_theft,
    send_complete_to_flag_time,
    send_dma_setup_time,
)
from repro.mlsim.timeline import (
    EXECUTION,
    IDLE,
    OVERHEAD,
    RTSYS,
    STOLEN,
    Timeline,
)
from repro.network.topology import TorusTopology
from repro.obs.registry import REPLAY_SCHEMA, Histogram
from repro.trace.events import EventKind
from repro.trace.soa import TraceColumns

if TYPE_CHECKING:
    from repro.mlsim.runs import RunCosts, Runs
    from repro.mlsim.supersteps import ChainCosts, Supersteps

# Interpreter opcodes: EventKind collapsed to what the replay loop
# distinguishes (GOP/VGOP share an opcode, as do the CREG pair and the
# three robustness instants; BARRIER and the reductions share the
# rendezvous handler).
_COMPUTE = 0
_RTSYS = 1
_PUT = 2
_GET = 3
_FLAG_WAIT = 4
_SEND = 5
_RECV = 6
_BARRIER = 7
_REDUCTION = 8
_REMOTE_LOAD = 9
_REMOTE_STORE = 10
_CREG = 11
_INSTANT = 12
_PHASE = 13
#: The first row of a run (:mod:`repro.mlsim.runs`); above ``_INSTANT``
#: so the loop's theft check passes it by: the run step charges that.
_RUN = 14

_OPCODE = {
    int(EventKind.COMPUTE): _COMPUTE,
    int(EventKind.RTSYS): _RTSYS,
    int(EventKind.PUT): _PUT,
    int(EventKind.GET): _GET,
    int(EventKind.FLAG_WAIT): _FLAG_WAIT,
    int(EventKind.SEND): _SEND,
    int(EventKind.RECV): _RECV,
    int(EventKind.BARRIER): _BARRIER,
    int(EventKind.GOP): _REDUCTION,
    int(EventKind.VGOP): _REDUCTION,
    int(EventKind.REMOTE_LOAD): _REMOTE_LOAD,
    int(EventKind.REMOTE_STORE): _REMOTE_STORE,
    int(EventKind.CREG_STORE): _CREG,
    int(EventKind.CREG_LOAD): _CREG,
    int(EventKind.RETRY): _INSTANT,
    int(EventKind.TIMEOUT): _INSTANT,
    int(EventKind.SPILL): _INSTANT,
    int(EventKind.PHASE): _PHASE,
}

#: EventKind -> opcode (-1: a kind the replay does not know).
_OPCODES = np.full(max(_OPCODE) + 1, -1, dtype=np.int64)
_OPCODES[list(_OPCODE)] = list(_OPCODE.values())

_INSTANT_NAME = {
    int(EventKind.RETRY): "RETRY",
    int(EventKind.TIMEOUT): "TIMEOUT",
    int(EventKind.SPILL): "SPILL",
}

#: The kinds that keep a DMA and links busy.
_WIRED = (int(EventKind.PUT), int(EventKind.SEND), int(EventKind.GET))

#: Messages per row of the kinds that send any, and whether each row
#: carries its size on the wire; a VGOP adds ``group_size - 1`` ring
#: messages of its size per member (:func:`_traffic`).
_SENT = {int(EventKind.PUT): (1, True), int(EventKind.GET): (2, True),
         int(EventKind.SEND): (1, True),
         int(EventKind.REMOTE_LOAD): (2, False),
         int(EventKind.REMOTE_STORE): (1, True)}

#: ``chan_last`` of a channel no message has taken yet: every departure
#: is in order behind it, and the first arrival clamps at zero.
_NEVER = (-math.inf, 0.0)

#: Fewest consecutive PUT/GET rows the loop replays as one run step: the
#: break-even.  The step costs 36-39 µs on runs of 24 to 32 rows, with
#: metrics on or off (they are no part of it), the loop 1.1-1.6 µs per
#: such row, so they meet at 24-34 rows (2-vCPU Xeon KVM guest, CPython
#: 3.11.7, numpy 2.4.6; bursts of PUT/GET rows, best of 150 replays).
_RUN_MIN = 32

#: The superstep step's break-even, in rows of a chain (every PE's, from
#: its first collective to its last): the step costs about as much as
#: the loop spends on _CHAIN_MIN rows to set up and _CHAIN_STEP rows per
#: superstep, whatever the PE count (16 PEs: a chain of 10 supersteps
#: with one local row each; 4 PEs: 64 of them).  Measured with index,
#: compile and replay of three presets, as a bench grid pays them, on
#: the same host as _RUN_MIN.
_CHAIN_MIN = 256
_CHAIN_STEP = 4

#: Opcodes of a superstep's local rows: they neither wait nor signal.
_LOCAL_OPS = (_COMPUTE, _RTSYS, _CREG, _INSTANT, _PHASE)
#: Kinds that wait or signal, besides the collectives: every kind whose
#: opcode is neither a local one nor a collective's, so a kind added to
#: _OPCODE ends a superstep unless it is declared local here.
_CROSSING = tuple(k for k, op in _OPCODE.items()
                  if op not in (*_LOCAL_OPS, _BARRIER, _REDUCTION))
#: EventKind -> the bucket block a superstep's timed row adds its time
#: to (:mod:`repro.mlsim.supersteps`): 0 overhead (CREG), 1 execution
#: (COMPUTE), 2 run-time system (RTSYS); -1 a row that adds no time.
_BLOCK = np.select([_OPCODES == _CREG, _OPCODES == _COMPUTE,
                    _OPCODES == _RTSYS], [0, 1, 2], -1).astype(np.int8)


def _torus_distances(topology: TorusTopology, src: np.ndarray,
                     dst: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`TorusTopology.distance`: per-ring shortest hops
    on the x ring plus the y ring (row-major cell numbering)."""
    w, h = topology.width, topology.height
    sx, sy = src % w, src // w
    dx, dy = dst % w, dst // w
    fx = (dx - sx) % w
    fy = (dy - sy) % h
    return np.minimum(fx, w - fx) + np.minimum(fy, h - fy)


def _torus_links(topology: TorusTopology, src: np.ndarray,
                 dst: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectorized :meth:`TorusTopology.route` of every pair ``(src[k],
    dst[k])`` as links — each hop's cell of departure and of arrival,
    route by route — and each route's hop count: the x ring then the y
    ring, each the shorter arc, a tie forward, from the arithmetic of
    :func:`_torus_distances`."""
    w, h = topology.width, topology.height
    sy, sx = np.divmod(src, w)
    dy, dx = np.divmod(dst, w)
    fx, fy = (dx - sx) % w, (dy - sy) % h
    along = np.minimum(fx, w - fx)
    hops = along + np.minimum(fy, h - fy)
    route = np.repeat(np.arange(len(src)), hops)
    k = np.arange(1, len(route) + 1) - (np.cumsum(hops) - hops)[route]
    sx, sy, along = sx[route], sy[route], along[route]
    step_x = np.where(fx <= w - fx, 1, -1)[route]
    step_y = np.where(fy <= h - fy, 1, -1)[route]

    def cell(k: np.ndarray) -> np.ndarray:      # after k hops
        return ((sy + step_y * np.maximum(k - along, 0)) % h * w
                + (sx + step_x * np.minimum(k, along)) % w)

    return cell(k - 1), cell(k), hops


def _log2_times(sizes: np.ndarray, step: float) -> np.ndarray:
    """``ceil(log2(size)) * step`` per row (0 for a size below 2),
    computed once per distinct group size in exact Python math
    (``math.log2`` on small ints is correctly rounded; no numpy float
    detour whose rounding we would have to trust) and looked up from a
    table indexed by size."""
    sizes = np.maximum(sizes, 1)
    present = np.flatnonzero(np.bincount(sizes))
    table = np.zeros(int(present[-1]) + 1)
    table[present] = [(math.ceil(math.log2(s)) if s > 1 else 0) * step
                      for s in present.tolist()]
    return table.take(sizes)


def _partition(columns: TraceColumns) -> tuple[dict, np.ndarray]:
    """The rows of each kind the trace holds, ascending, and each row's
    PE, from one stable sort of the kind column; a kind the replay does
    not know is a :class:`SimulationError` naming the first one."""
    kind = columns.kind
    by_kind: dict[int, np.ndarray] = {}
    if len(kind):
        if 0 <= kind.min() and kind.max() < len(_OPCODES):
            order = np.argsort(kind.astype(np.uint8), kind="stable")
            bounds = np.searchsorted(kind.take(order),
                                     np.arange(len(_OPCODES) + 1)).tolist()
            by_kind = {k: order[lo:hi] for k, (lo, hi)
                       in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo}
        if not by_kind or (_OPCODES[list(by_kind)] < 0).any():
            known = (kind >= 0) & (kind < len(_OPCODES))
            known[known] = _OPCODES[kind[known]] >= 0
            raise SimulationError(
                f"unknown trace event kind {int(kind[~known][0])}")
    pe_of = np.repeat(np.arange(columns.num_pes, dtype=np.int64),
                      np.diff(columns.starts))
    return by_kind, pe_of


def _traffic(columns: TraceColumns, by_kind: dict) -> tuple[int, int]:
    """The messages and bytes a replay puts on the wire (``_SENT``),
    from ``by_kind``, the trace's rows by kind."""
    messages = nbytes = 0
    for k, (sent, carried) in _SENT.items():
        idx = by_kind.get(k)
        if idx is not None:
            messages += sent * len(idx)
            if carried:
                nbytes += int(columns.size[idx].sum())
    idx = by_kind.get(int(EventKind.VGOP))
    if idx is not None:
        ring = columns.group_size[idx] - 1
        messages += int(ring.sum())
        nbytes += int((columns.size[idx] * ring).sum())
    return messages, nbytes


def _find_runs(columns: TraceColumns, pe_of: np.ndarray,
               by_kind: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """The first and stop rows of every maximal stretch of at least
    ``_RUN_MIN`` consecutive PUT/GET rows of one PE, or ``None``
    (``by_kind``: the trace's rows by kind).

    A GET a PE sends itself ends a stretch: its reply takes the channel
    its request just took, so that channel's clamps depend on each
    other and the scalar loop replays the row.
    """
    kind, partner = columns.kind, columns.partner
    flowing = sum(len(by_kind.get(int(k), ()))
                  for k in (EventKind.PUT, EventKind.GET))
    if not flowing or flowing < _RUN_MIN:
        return None
    flows = (kind == int(EventKind.PUT)) | (
        (kind == int(EventKind.GET)) & (partner != pe_of))
    joined = np.zeros(len(kind), dtype=bool)   # continues the row above
    joined[1:] = flows[1:] & flows[:-1]
    heads = columns.starts[:-1]
    joined[heads[heads < len(kind)]] = False
    firsts = np.flatnonzero(flows & ~joined)
    lasts = np.flatnonzero(flows & ~np.append(joined[1:], False))
    long = np.flatnonzero(lasts - firsts + 1 >= _RUN_MIN)
    if not len(long):
        return None
    return firsts[long], lasts[long] + 1


def _find_chains(columns: TraceColumns, pe_of: np.ndarray,
                 by_kind: dict[int, np.ndarray]) -> tuple | None:
    """Every maximal run of consecutive supersteps worth a step, or
    ``None``: the whole-machine collectives' rows per PE (``n x c``)
    and each chain's first and last of them.

    A superstep is every PE's stretch of local rows closed by a
    whole-machine collective: a BARRIER, GOP or VGOP whose group size is
    the PE count, with the same kind, group and generation (the loop's
    rendezvous slot) on every PE.  Any other row ends a chain.  A chain
    is worth a step when it holds at least ``_CHAIN_MIN`` rows plus
    ``_CHAIN_STEP`` per superstep: the loop pays per row (and visits
    every PE at every collective), the step per superstep whatever the
    PE count.  ``by_kind`` are the trace's rows by kind.
    """
    kind, n = columns.kind, columns.num_pes
    if len(kind) < _CHAIN_MIN:
        return None
    collective = np.sort(np.concatenate([
        by_kind.get(int(k), np.empty(0, dtype=np.int64))
        for k in (EventKind.BARRIER, EventKind.GOP, EventKind.VGOP)]),
        kind="stable")
    whole = columns.group_size[collective] == n
    rows = collective[whole]
    count = np.diff(np.searchsorted(rows, columns.starts))
    c = int(count[0])
    if c < 2 or (count != c).any():
        return None
    # A superstep is local unless a row that is neither local nor a
    # whole-machine collective falls in it on some PE: mark the position
    # among the collectives' rows (PE-major, so ascending) after each
    # such row, pe * c + j for superstep j (j = 0: before a PE's first
    # collective or past its last, in no superstep).
    crossed = np.zeros(n * c + 1, dtype=bool)
    crossed[np.searchsorted(rows, np.concatenate([collective[~whole], *(
        by_kind[k] for k in _CROSSING if k in by_kind)]))] = True
    local = ~crossed[:-1].reshape(n, c)[:, 1:].any(axis=0)
    if not local.any():
        return None
    rows = rows.reshape(n, c)
    # The loop's rendezvous slot: kind, group and generation.  A
    # collective's generation is its rank among its PE's collectives of
    # one class (barrier, reduction) and group, the same on every PE
    # where all are whole-machine ones of the same kind and group.
    matched = np.ones(c, dtype=bool)
    for same in (kind[rows], columns.group[rows]):
        matched &= (same == same[0]).all(axis=0)
    if not (matched.all() and whole.all()):
        same = _generations(columns, collective, pe_of)[whole].reshape(n, c)
        matched &= (same == same[0]).all(axis=0)
    # Superstep j closes with collective j + 1: a chain runs from the
    # first to the last collective of a maximal run of linked ones.
    link = matched[:-1] & matched[1:] & local
    edges = np.flatnonzero(np.diff(np.concatenate(([False], link, [False]))))
    firsts, lasts = edges[::2], edges[1::2]
    size = (rows[:, lasts] - rows[:, firsts]).sum(axis=0)
    worth = size >= _CHAIN_MIN + _CHAIN_STEP * (lasts - firsts)
    if not worth.any():
        return None
    return rows, firsts[worth], lasts[worth]


def _generations(columns: TraceColumns, collective: np.ndarray,
                 pe_of: np.ndarray) -> np.ndarray:
    """Each of the ``collective`` rows' rank among its PE's collectives
    of one class (barrier, reduction) and group."""
    group = columns.group[collective]
    key = ((pe_of[collective] * 2 + (columns.kind[collective] !=
                                     int(EventKind.BARRIER)))
           * (int(group.max()) + 1) + group)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    heads = np.flatnonzero(np.append(True, ranked[1:] != ranked[:-1]))
    rank = np.empty(len(key), dtype=np.int64)
    rank[order] = np.arange(len(key)) - np.repeat(
        heads, np.diff(np.append(heads, len(key))))
    return rank


class _TraceIndex:
    """Preset-independent structure of one decoded trace.

    Built once per (columns, topology) pair and shared by every
    per-preset :class:`_Program`: event-kind partitions (``by_kind``)
    and each row's PE, from one sort of the kind column; hop distances
    for communication events; the plans of the runs (``runs``, a
    :class:`repro.mlsim.runs.Runs`: all of them from one pass over their
    rows) and superstep chains (``supersteps``) the loop replays as
    steps; the opcodes and integer operands of the interpreter (none of
    which depend on timing parameters); the totals no replay order can
    change — ``messages`` and ``bytes_on_wire``, and the PUT, GET and
    SEND rows (``wired``) whose DMA and link charges the programs sum —
    and, materialized lazily because only metric collection
    (:meth:`link_charges`) and link contention (:meth:`link_plan`) need
    them, the messages' routes as dense physical-link ids.

    A stepped replay visits the rows outside runs and chains, each
    run's first row and each chain's opening and closing collectives.
    They are its numbering: ``rows`` maps a position in it to its trace
    row, ``starts`` are each PE's first position (then the end), and
    the steps' plans are keyed by positions (``Runs.at``,
    ``Supersteps.at``, ``Chain.close``).  Its operand slots, here and on
    each :class:`_Program`, are lists over those positions, and a replay
    that declines the steps gets lists over every row, built on first
    use (:meth:`operands`).  In a trace without steps ``rows`` is
    ``None``, ``starts`` are the trace's and one set of lists serves
    both.
    """

    __slots__ = ("columns", "topology", "by_kind", "dist", "runs",
                 "supersteps", "rows", "starts", "_lists", "instant_counts",
                 "messages", "bytes_on_wire", "wired", "_link_plan",
                 "_charges", "link_table")

    def __init__(self, columns: TraceColumns,
                 topology: TorusTopology) -> None:
        self.columns = columns
        self.topology = topology
        total = len(columns.kind)
        self.by_kind, pe_of = _partition(columns)
        self.dist = {}
        for k in (int(EventKind.PUT), int(EventKind.GET),
                  int(EventKind.SEND), int(EventKind.REMOTE_LOAD)):
            idx = self.by_kind.get(k)
            if idx is not None:
                # A partner off the torus is refused here, whichever
                # replay options would read it.
                partners = columns.partner[idx]
                topology.coordinates(int(partners.min()))
                topology.coordinates(int(partners.max()))
                self.dist[k] = _torus_distances(topology, pe_of[idx],
                                                partners)
        runs = _find_runs(columns, pe_of, self.by_kind)
        chains = _find_chains(columns, pe_of, self.by_kind)
        self.runs: Runs | None = None
        self.supersteps: Supersteps | None = None
        self.rows: np.ndarray | None = None
        self.starts = columns.starts.tolist()
        ints = self._int_columns()
        if runs is None and chains is None:
            self._lists = dict.fromkeys((True, False),
                                        _operand_lists(ints, 0))
        else:
            # The rows a stepped replay skips: a run's past its first
            # row, a chain's of each PE between its opening and closing
            # collectives.
            bounds = [] if runs is None else [runs]
            if chains is not None:
                collectives, firsts, lasts = chains
                opens, closes = collectives[:, firsts], collectives[:, lasts]
                bounds.append((opens.ravel(), closes.ravel()))
            after, until = (np.concatenate(side) for side in zip(*bounds))
            # The rows kept: from each skip's end to the next one's start.
            order = after.argsort()
            lo = np.concatenate(([0], until[order]))
            size = np.concatenate((after[order] + 1, [total])) - lo
            self.rows = rows = np.arange(size.sum()) + np.repeat(
                lo - (size.cumsum() - size), size)
            position = rows.searchsorted
            self.starts = position(columns.starts).tolist()
            ops, *rest = (column.take(rows) for column in ints)
            if runs is not None:
                from repro.mlsim.runs import Runs   # for traces with runs

                keys = position(runs[0])
                ops[keys] = _RUN
                self.runs = Runs(columns, *runs, pe_of[runs[0]], keys)
            if chains is not None:
                from repro.mlsim.supersteps import Supersteps

                self.supersteps = Supersteps(columns, collectives, firsts,
                                             lasts, position(opens),
                                             position(closes))
            self._lists = {True: _operand_lists((ops, *rest), 0)}
        # Robustness instants and message counts never depend on timing;
        # count them up front.
        self.instant_counts = {"RETRY": 0, "TIMEOUT": 0, "SPILL": 0}
        for k, name in _INSTANT_NAME.items():
            idx = self.by_kind.get(k)
            if idx is not None:
                self.instant_counts[name] = len(idx)
        self.messages, self.bytes_on_wire = _traffic(columns, self.by_kind)
        wired = [self.by_kind[k] for k in _WIRED if k in self.by_kind]
        self.wired = np.sort(np.concatenate(wired), kind="stable") \
            if wired else None
        self._link_plan: list | None = None
        self._charges: tuple | None = None
        self.link_table: list[tuple[int, int]] = []

    def _int_columns(self) -> tuple[np.ndarray, ...]:
        """The opcodes and the four integer operand columns (see the
        _Program docstring table) of every row.  The generic layout is
        the PUT/GET one; kinds whose operands differ are rewritten with
        vectorized index assignments."""
        columns = self.columns
        i0 = columns.partner.copy()
        i1 = np.zeros_like(i0)
        i2 = columns.send_flag.copy()
        i3 = columns.recv_flag.copy()
        collective = (columns.group, None, columns.group_size, 0)
        rewrites = (
            (EventKind.FLAG_WAIT,
             (columns.flag, columns.target, 0, 0)),
            (EventKind.SEND,
             (None, None, columns.msg_id, 0)),
            (EventKind.RECV,
             (columns.msg_id, None, 0, 0)),
            (EventKind.BARRIER, collective),
            (EventKind.GOP, collective),
            (EventKind.VGOP, collective),
        )
        for k, values in rewrites:
            idx = self.by_kind.get(int(k))
            if idx is None:
                continue
            for slot, value in zip((i0, i1, i2, i3), values):
                if value is None:
                    continue  # keep the generic operand
                slot[idx] = value[idx] if isinstance(value, np.ndarray) \
                    else value
        return _OPCODES.take(columns.kind), i0, i1, i2, i3

    def operands(self, stepped: bool) -> tuple:
        """The opcodes and the four integer operand slots, as lists:
        ``stepped`` (the loop replays runs and chains as steps) over the
        positions of ``rows``, else over every row."""
        got = self._lists.get(stepped)
        if got is None:
            got = self._lists[stepped] = _operand_lists(
                self._int_columns(), 0)
        return got

    def link_plan(self) -> list:
        """Each row's route as link ids, for link contention: a tuple for
        a PUT or SEND (empty for a self-send), a ``(request_route,
        reply_route)`` pair for a GET and ``None`` for a row that is not
        a message; link ids index ``link_table``.  A trace without PUT,
        GET or SEND has the empty plan."""
        if self._link_plan is None:
            self._link_plan = []
            if self.wired is not None:
                _, link, counts, _, _ = self.link_charges()
                flat, ends = link.tolist(), np.cumsum(counts).tolist()
                routes = [tuple(flat[lo:hi])
                          for lo, hi in zip([0, *ends], ends)]
                plan = self._link_plan = [None] * len(self.columns.kind)
                rows = self.wired
                for row, get, request, reply in zip(
                        rows.tolist(), (self.columns.kind[rows] == int(
                            EventKind.GET)).tolist(),
                        routes[0::2], routes[1::2]):
                    plan[row] = (request, reply) if get else request
        return self._link_plan

    def link_charges(self) -> tuple:
        """What the ``wired`` rows charge whatever the order of the
        replay, made once, on first use; it fills ``link_table``, the
        links ascending.  Each row has two segments, its request's route
        and its reply's (empty but for a GET's), and the result is: the
        PE whose DMA each row keeps busy (a PUT's or SEND's own, a GET's
        partner); the link of each charge, segment by segment, hop by
        hop; each segment's charges; and the bytes and frames each link
        carries.  A route is resolved once per distinct (src, dst) pair,
        all of them at once (:func:`_torus_links`)."""
        if self._charges is not None:
            return self._charges
        rows, columns, topology = self.wired, self.columns, self.topology
        if rows is None:
            self._charges = (np.empty(0, dtype=np.intp),) * 3 + ([], [])
            return self._charges
        cells = topology.width * topology.height
        src = columns.starts.searchsorted(rows, side="right") - 1
        dst = columns.partner[rows]
        bad = np.flatnonzero(((dst < 0) | (dst >= cells)) & (dst != src))
        if len(bad):    # refused as TorusTopology.route refuses it
            topology.route(int(src[bad[0]]), int(dst[bad[0]]))
        get = columns.kind[rows] == int(EventKind.GET)
        pairs, route = np.unique(np.concatenate((
            src * cells + dst, (dst * cells + src)[get])), return_inverse=True)
        tail, head, hops = _torus_links(topology, *np.divmod(pairs, cells))
        links, link_of = np.unique(tail * cells + head, return_inverse=True)
        self.link_table = list(zip(*(end.tolist() for end in np.divmod(
            links, cells))))
        # A segment's route is its pair's number plus one: route 0 is the
        # empty one.
        m = len(rows)
        seg = np.zeros((m, 2), dtype=np.intp)
        seg[:, 0] = route[:m] + 1
        seg[get, 1] = route[m:] + 1
        seg = seg.ravel()
        lengths = np.append(0, hops)
        counts = lengths[seg]
        # A charge's place in ``link_of``: where its route begins there,
        # plus its place in the route.
        place = np.repeat((np.cumsum(lengths) - lengths)[seg]
                          - (np.cumsum(counts) - counts), counts)
        place += np.arange(len(place))
        link = link_of.astype(np.int32)[place]
        # Bytes (a GET's request carries none) and frames per route, then
        # per link: integer sums, exact in float64.
        size = columns.size[rows]
        carried = np.stack((np.where(get, 0, size), size), axis=1).ravel()
        hop_route = np.repeat(np.arange(len(lengths)), lengths)
        self._charges = (np.where(get, dst, src), link, counts, *(
            np.bincount(link_of, np.bincount(seg, weights, len(lengths))[
                hop_route], len(links)).astype(np.int64).tolist()
            for weights in (carried, None)))
        return self._charges


def trace_index(columns: TraceColumns,
                topology: TorusTopology | None = None) -> _TraceIndex:
    """The cached :class:`_TraceIndex` of ``columns``."""
    if topology is None:
        topology = TorusTopology.for_cells(columns.num_pes)
    cached = getattr(columns, "_soa_index", None)
    if cached is not None and (cached.topology.width == topology.width
                               and cached.topology.height == topology.height):
        return cached
    index = _TraceIndex(columns, topology)
    columns._soa_index = index  # type: ignore[attr-defined]
    return index


class _Program:
    """One (trace, params) pair compiled to flat operand slots.

    The preset-independent integer operand slots live on the shared
    :class:`_TraceIndex`:

    =========  =======  =======  ==========  =========
    opcode     i0       i1       i2          i3
    =========  =======  =======  ==========  =========
    PUT/GET    partner  --       send_flag   recv_flag
    SEND       partner  --       msg_id      --
    RECV       msg_id   --       --          --
    FLAG       flag     target   --          --
    BARRIER,   group    --       group_size  --
    GOP/VGOP
    RSTORE     partner  --       --          --
    =========  =======  =======  ==========  =========

    Float slots carry the precomputed per-event costs; see the per-kind
    blocks below.  A trace with runs also gets them as arrays for the run
    step (``run_costs``, a :class:`repro.mlsim.runs.RunCosts`), one with
    chains for the superstep step (``chain_costs``, a
    :class:`repro.mlsim.supersteps.ChainCosts`).  The slots a stepped
    replay reads (``lists``) are lists in the index's numbering, and a
    replay that declines the steps gets lists over every row, built on
    first use (:meth:`operands`); in a trace without steps both read the
    same lists.  ``wired`` keeps what the index's ``wired`` rows keep a
    DMA busy for (``f1``) and their segments' wire times (a request's,
    ``f0`` for a GET and else ``f2``, then a reply's ``f2``) for the busy
    times (:meth:`busy`).
    """

    __slots__ = ("index", "params", "lists", "_full", "run_costs",
                 "chain_costs", "dma_setup", "send_flag_tail", "send_theft",
                 "get_send_cpu", "wired", "_busy")

    def __init__(self, index: _TraceIndex, params: MLSimParams) -> None:
        self.index = index
        self.params = params
        p = params
        # Per-preset scalar constants (put_model functions of params only).
        self.dma_setup = send_dma_setup_time(p)
        self.send_flag_tail = send_complete_to_flag_time(p)
        self.send_theft = send_complete_cpu_theft(p)
        self.get_send_cpu = get_send_cpu_time(p, 0)
        costs = self._costs()
        rows = index.rows
        self.lists = _operand_lists(costs if rows is None else costs[:, rows])
        self._full = self.lists if rows is None else None
        self.wired = None
        wired = index.wired
        if wired is not None:
            wires = np.empty((len(wired), 2))
            wires[:, 1] = costs[2, wired]
            wires[:, 0] = np.where(index.columns.kind[wired] == int(
                EventKind.GET), costs[0, wired], wires[:, 1])
            self.wired = (costs[1, wired], wires.ravel())
        self._busy: tuple[list, list] | None = None
        self.run_costs: RunCosts | None = None
        self.chain_costs: ChainCosts | None = None
        if index.runs is not None:
            from repro.mlsim.runs import RunCosts

            self.run_costs = RunCosts(
                index.columns.kind, index.runs, costs, self.dma_setup,
                self.send_flag_tail, self.send_theft, self.get_send_cpu)
        if index.supersteps is not None:
            from repro.mlsim.supersteps import ChainCosts

            self.chain_costs = ChainCosts(
                index.supersteps, costs, p.barrier_lib_time,
                p.creg_access_time)

    def _costs(self) -> np.ndarray:
        """The six float slots of every row, as one ``(6, rows)`` array."""
        index = self.index
        columns = index.columns
        p = self.params
        hw = p.hardware_put_get
        by_kind = index.by_kind
        costs = np.zeros((6, len(columns.kind)))
        f0, f1, f2, f3, f4, f5 = costs

        def idx_of(k: EventKind) -> np.ndarray:
            got = by_kind.get(int(k))
            return got if got is not None else np.empty(0, dtype=np.int64)

        for k in (EventKind.COMPUTE, EventKind.RTSYS):
            idx = idx_of(k)
            if len(idx):
                f0[idx] = columns.work[idx] * p.computation_factor

        # Message costs are the repro.mlsim.put_model functions applied
        # to whole size and distance columns.
        # PUT: f0 send cpu, f1 dma drain, f2 wire, f3 arrival->recv-flag,
        # f4 receiver theft.
        idx = idx_of(EventKind.PUT)
        if len(idx):
            sz = columns.size[idx]
            dist = index.dist[int(EventKind.PUT)]
            f0[idx] = put_send_cpu_time(p, sz)
            f1[idx] = p.put_msg_time * sz
            f2[idx] = network_time(p, sz, dist)
            f3[idx] = recv_flag_update_time(p, sz)
            f4[idx] = recv_cpu_theft(p, sz)

        # GET: f0 request wire, f1 reply service, f2 reply wire,
        # f3 target theft, f4 reply-arrival->recv-flag, f5 self theft.
        idx = idx_of(EventKind.GET)
        if len(idx):
            sz = columns.size[idx]
            dist = index.dist[int(EventKind.GET)]
            f0[idx] = network_time(p, 0, dist)
            f1[idx] = get_reply_service_time(p, sz)
            f2[idx] = network_time(p, sz, dist)
            f3[idx] = get_reply_cpu_theft(p, sz)
            f4[idx] = recv_flag_update_time(p, sz)
            f5[idx] = recv_cpu_theft(p, sz)

        # SEND: f0 library+issue cpu, f1 dma drain, f2 wire,
        # f3 arrival->ready service, f4 receiver theft.
        idx = idx_of(EventKind.SEND)
        if len(idx):
            sz = columns.size[idx]
            dist = index.dist[int(EventKind.SEND)]
            f0[idx] = p.send_lib_time + put_send_cpu_time(p, sz)
            f1[idx] = p.put_msg_time * sz
            f2[idx] = network_time(p, sz, dist)
            f3[idx] = recv_service_time(p, sz)
            f4[idx] = recv_cpu_theft(p, sz)

        # RECV: f0 ring-buffer copy.
        idx = idx_of(EventKind.RECV)
        if len(idx):
            f0[idx] = p.recv_copy_byte_time * columns.size[idx]

        # BARRIER: f0 establishment time (S-net hardware for group 0, a
        # software barrier over communication registers otherwise).
        idx = idx_of(EventKind.BARRIER)
        if len(idx):
            f0[idx] = np.where(
                columns.group[idx] == 0, p.barrier_net_time,
                _log2_times(columns.group_size[idx],
                            p.group_barrier_step_time))

        # GOP: f0 duration == f1 member cpu share.
        idx = idx_of(EventKind.GOP)
        if len(idx):
            f0[idx] = f1[idx] = _log2_times(columns.group_size[idx],
                                            p.gop_step_time)

        # VGOP: f0 duration, f1 member cpu share.  A pipelined ring
        # reduction over ring buffers with blocking SEND/RECEIVE (section
        # 4.5): the vector streams around the ring twice (reduce lap +
        # result lap); per-stage library setup and hop latency pay
        # 2*(P-1) times on the critical path, but the vector's wire time,
        # the combining arithmetic and (software model only) the
        # ring-buffer copy pipeline, and pay roughly once each lap.
        idx = idx_of(EventKind.VGOP)
        if len(idx):
            sz = columns.size[idx]
            gs = columns.group_size[idx]
            flops = sz / 8.0
            exec_us = flops * SPARC_US_PER_FLOP * p.computation_factor
            copy_us = 0.0 if hw else p.recv_copy_byte_time * sz
            stage_setup = (p.send_lib_time + put_send_cpu_time(p, 0)
                           + p.recv_lib_time)
            hop = network_time(p, 0, 1)
            stages = 2 * np.maximum(gs - 1, 0)
            wire = 2.0 * sz * p.put_msg_time
            f0[idx] = stages * (stage_setup + hop) + wire + exec_us + copy_us
            f1[idx] = 2.0 * stage_setup + exec_us + copy_us

        # REMOTE_LOAD: f0 round trip (request wire + reply service +
        # reply wire).
        idx = idx_of(EventKind.REMOTE_LOAD)
        if len(idx):
            sz = columns.size[idx]
            dist = index.dist[int(EventKind.REMOTE_LOAD)]
            f0[idx] = (network_time(p, 0, dist)
                       + get_reply_service_time(p, sz)
                       + network_time(p, sz, dist))

        # REMOTE_STORE: f0 receiver theft.
        idx = idx_of(EventKind.REMOTE_STORE)
        if len(idx):
            f0[idx] = recv_cpu_theft(p, columns.size[idx])
        return costs

    def operands(self, stepped: bool) -> tuple:
        """The float slots, as lists: ``stepped`` (the loop replays runs
        and chains as steps) in the index's numbering, else over every
        row."""
        if stepped:
            return self.lists
        if self._full is None:
            self._full = _operand_lists(self._costs())
        return self._full

    def busy(self) -> tuple[list[float], list[float]]:
        """Each PE's DMA busy time and each link's (in ``link_table``
        order), made once, on first use by metrics.  A PUT or SEND keeps
        its PE's DMA busy for its drain, a GET its partner's for the
        reply's service, and a message every link on its route for its
        wire time (:meth:`_TraceIndex.link_charges`): sums in trace-row
        order — PE by PE, each PE's rows in order, a GET's request
        before its reply — which ``np.bincount`` adds in."""
        if self._busy is None:
            index = self.index
            n = index.columns.num_pes
            if self.wired is None:
                self._busy = ([0.0] * n, [])
            else:
                dma, link, counts, _, _ = index.link_charges()
                drain, wires = self.wired
                self._busy = (
                    np.bincount(dma, drain, n).tolist(),
                    np.bincount(link, np.repeat(wires, counts),
                                len(index.link_table)).tolist())
        return self._busy


def _operand_lists(arrays: np.ndarray | tuple[np.ndarray, ...],
                   zero: float = 0.0) -> tuple[list, ...]:
    """``arrays`` as lists, those no kind wrote one shared list of ``zero``."""
    zeros = None
    lists = []
    for arr in arrays:
        if arr.any():
            lists.append(arr.tolist())
            continue
        if zeros is None:
            zeros = [zero] * len(arr)
        lists.append(zeros)
    return tuple(lists)


def compile_program(columns: TraceColumns, params: MLSimParams,
                    topology: TorusTopology | None = None) -> _Program:
    """Precompute the operand slots for one (trace, params) pair."""
    return _Program(trace_index(columns, topology), params)


def _check_program(program: _Program, columns: TraceColumns,
                   params: MLSimParams,
                   topology: TorusTopology | None) -> None:
    """Refuse a program compiled for other columns, another torus or
    other params: replaying it would give a wrong result, not an error."""
    index = program.index
    if index.columns is not columns:
        raise SimulationError(
            "program was compiled for other trace columns")
    if topology is None:
        topology = TorusTopology.for_cells(columns.num_pes)
    have = (index.topology.width, index.topology.height)
    want = (topology.width, topology.height)
    if have != want:
        raise SimulationError(
            "program was compiled for another torus "
            f"({have[0]}x{have[1]}, not {want[0]}x{want[1]})")
    if program.params != params:
        if program.params.name != params.name:
            what = f"{program.params.name!r}, not {params.name!r}"
        else:
            what = ", ".join(
                f.name for f in fields(params)
                if getattr(program.params, f.name) != getattr(params, f.name))
            what += " differ"
        raise SimulationError(
            f"program was compiled for other params ({what})")


def _in_place(waits: list[float],
              steps: list[tuple[int, np.ndarray]]) -> list | np.ndarray:
    """``waits`` with each chain step's array inserted at its place."""
    if not steps:
        return waits
    parts: list = []
    done = 0
    for place, step in steps:
        parts += waits[done:place], step
        done = place
    parts.append(waits[done:])
    return np.concatenate(parts)


def replay_columns(columns: TraceColumns, params: MLSimParams,
                   topology: TorusTopology | None = None, *,
                   link_contention: bool = False,
                   record_timeline: bool = False,
                   collect_metrics: bool = False,
                   program: _Program | None = None) -> MLSimResult:
    """Replay decoded trace columns under one parameter set.

    ``link_contention`` serializes transfers behind earlier traffic on
    shared physical links; ``record_timeline`` attaches the span / flow /
    instant log as ``result.timeline``; ``collect_metrics`` attaches the
    :mod:`repro.obs` replay metric document, whose DMA and link totals
    are the program's sums in trace-row order (:meth:`_Program.busy`)
    whatever the options.  See the module docstring for how the pass
    below is laid out.
    """
    n = columns.num_pes
    if topology is not None and topology.num_cells != n:
        raise SimulationError(
            f"topology has {topology.num_cells} cells but trace has "
            f"{n} PEs")
    p = params
    if program is None:
        program = compile_program(columns, p, topology)
    else:
        _check_program(program, columns, p, topology)
    index = program.index
    contend = link_contention
    record = record_timeline
    # Runs and chains are replayed as one step each unless a timeline or
    # the link step needs every row on its own.
    stepped = not (contend or record)
    ops, i0, i1, i2, i3 = index.operands(stepped)
    runs = index.runs if stepped else None      # no _RUN row otherwise
    if runs is not None:
        run_costs = program.run_costs
        assert run_costs is not None
        run_step = run_costs.replay
        at = runs.at
    chains: dict = {}                   # by the positions that open them
    chain = None                        # the chain whose opening is released
    if stepped and program.chain_costs is not None:
        chains = program.chain_costs.at
        chain_step = program.chain_costs.replay
    starts = index.starts if stepped else columns.starts.tolist()
    f0, f1, f2, f3, f4, f5 = program.operands(stepped)

    # Per-preset scalar constants (put_model functions of params only).
    dma_setup = program.dma_setup
    send_flag_tail = program.send_flag_tail
    send_theft = program.send_theft
    get_send_cpu = program.get_send_cpu
    flag_prolog = p.flag_check_prolog_time
    flag_epilog = p.flag_check_epilog_time
    recv_lib = p.recv_lib_time
    barrier_lib = p.barrier_lib_time
    remote_access = p.remote_access_time
    creg_access = p.creg_access_time

    # Per-PE replay state.  Everything a visit touches is packed into
    # one list per PE — [cursor, clock, overhead, attempted, execution,
    # rtsys, idle] — so a context switch is one
    # unpack on entry and one slice-assign on exit instead of seven list
    # reads and writes (visits outnumber events on blocking-heavy
    # traces, so switch cost is a first-order term).  Stolen CPU time is
    # kept separate: communication handlers credit it cross-PE.
    ends = starts[1:]
    state = [[starts[pe], 0.0, 0.0, False, 0.0, 0.0, 0.0]
             for pe in range(n)]
    theft = [0.0] * n
    rec_of: list[list | None] = [None] * n

    # Shared registries — semantically the oracle's, but laid out for
    # dict-op throughput: slots and channels are keyed by packed
    # integers instead of tuples, and barrier/reduction rendezvous keep a
    # running (count, max-arrival) pair instead of a per-PE arrival dict
    # (``max`` over floats is order-independent, so the release time is
    # bit-identical to ``max(arrivals.values())``).
    flag_times: dict[int, list[float]] = {}
    flag_waiters: dict[int, list[tuple[int, int]]] = {}
    ngroups = len(columns.group_sizes) or 1
    # Rendezvous state: generation counters are dense (pe * ngroups +
    # gid), so they live in flat lists; each active slot (gen * ngroups
    # + gid) keeps one mutable record [arrivals, max-arrival, release,
    # parked PEs], so an arrival costs a single dict probe instead of
    # one per component.
    bar_gens = [0] * (n * ngroups)
    red_gens = [0] * (n * ngroups)
    bar_slots: dict[int, list] = {}
    red_slots: dict[int, list] = {}
    ring_arrival: dict[int, float] = {}
    ring_waiters: dict[int, int] = {}
    chan_last: dict[int, tuple[float, float]] = {}  # src * n + dst
    runnable: deque[int] = deque(range(n))
    queued: set[int] = set(range(n))

    # The waits in the order the pass meets them, a chain step's as an
    # array at its place among the loop's: the only metrics that follow
    # the pass (Histogram.of sums them in that order after it).  The
    # rest are the program's sums.
    collect = collect_metrics
    flag_waits: list[float] = []
    barrier_waits: list[float] = []
    chain_waits: list[tuple[int, np.ndarray]] = []
    if collect:
        # The DMA and link busy sums, made (once per program) before the
        # pass, so that their scratch arrays and its state never peak
        # together.
        program.busy()
    plan = index.link_plan() if contend else []
    link_free = [0.0] * len(index.link_table)

    def contended(route: tuple[int, ...], inject: float,
                  raw: float) -> float:
        """Arrival of a transfer serialized behind earlier traffic.

        Each physical link on the dimension-order route is busy for the
        message's wire time (prolog + per-hop delay + payload); a
        message starting while any of its links is busy waits for the
        latest of them.  Approximation: contention is resolved in trace
        *processing* order, which is close to — but not exactly —
        global-time order; good enough to expose hot links, which is
        what the ablation quantifies.  Self-sends have no route.
        """
        if not route:
            return raw
        busy = inject
        for lid in route:
            if link_free[lid] > busy:
                busy = link_free[lid]
        delay = busy - inject
        until = inject + delay + (raw - inject)
        for lid in route:
            link_free[lid] = until
        return raw + delay

    # The timeline log: plain columns, every row keyed by the index of
    # the event being replayed (PE, label, packet endpoints and size are
    # that event's; Timeline derives them on read).  A GET logs its
    # request flow, then its reply.
    sp_event: list[int] = []
    sp_code: list[int] = []
    sp_start: list[float] = []
    sp_end: list[float] = []
    fl_event: list[int] = []
    fl_depart: list[float] = []
    fl_arrival: list[float] = []
    mk_event: list[int] = []
    mk_t: list[float] = []

    def span(event: int, code: int, start: float, end: float) -> None:
        if end > start:     # no time passed on this clock: no span
            sp_event.append(event)
            sp_code.append(code)
            sp_start.append(start)
            sp_end.append(end)

    def flow(event: int, depart: float, arrival: float) -> None:
        fl_event.append(event)
        fl_depart.append(depart)
        fl_arrival.append(arrival)

    def record_flag(gid: int, t: float) -> None:
        if gid == 0:
            return
        times = flag_times.setdefault(gid, [])
        insort(times, t)
        waiters = flag_waiters.get(gid)
        if waiters:
            still = []
            for wpe, wtarget in waiters:
                if len(times) >= wtarget:
                    if wpe not in queued:
                        queued.add(wpe)
                        runnable.append(wpe)
                else:
                    still.append((wpe, wtarget))
            flag_waiters[gid] = still

    while runnable:
        pe = runnable.popleft()
        queued.discard(pe)
        st = state[pe]
        i, clk, over, att, bex, brt, bid = st
        end = ends[pe]
        th = theft[pe]
        # ``while True``: CPython 3.11 readies a function to specialize
        # only on entry and on unconditional back edges, and ``while i <
        # end`` ends in a conditional one (seven unspecialized replays).
        while True:
            if i >= end:
                break
            op = ops[i]
            if th and not att and op < _INSTANT:
                # Interrupts serviced since this PE's last event are
                # charged before its next timed one starts.
                if record:
                    span(i, STOLEN, clk, clk + th)
                clk += th
                over += th
                th = 0.0
            if op == _COMPUTE:
                if record:
                    span(i, EXECUTION, clk, clk + f0[i])
                clk += f0[i]
                bex += f0[i]
            elif op == _PUT:
                if record:
                    span(i, OVERHEAD, clk, clk + f0[i])
                clk += f0[i]
                over += f0[i]
                depart = clk + dma_setup
                sfl = i2[i]
                if sfl:
                    record_flag(sfl, depart + f1[i] + send_flag_tail)
                th += send_theft
                partner = i0[i]
                key = pe * n + partner
                raw = depart + f2[i]
                if contend:
                    raw = contended(plan[i], depart, raw)
                # FIFO clamp (static T-net routing), ordered by
                # *injection* time: an arrival queues behind the
                # channel's previous one.  A message discovered out of
                # order — a GET reply, injected by the target's MSC+ the
                # moment the request arrived, perhaps long before the
                # target's own later sends were processed — was injected
                # earlier than the channel head and must not wait for it.
                last = chan_last.get(key, _NEVER)
                if depart >= last[0]:
                    arrival = last[1] if last[1] > raw else raw
                    chan_last[key] = (depart, arrival)
                else:
                    arrival = raw
                rfl = i3[i]
                if rfl:
                    record_flag(rfl, arrival + f3[i])
                if partner == pe:
                    th += f4[i]
                else:
                    theft[partner] += f4[i]
                if record:
                    flow(i, depart, arrival)
            elif op == _FLAG_WAIT:
                if not att:
                    if record:
                        span(i, OVERHEAD, clk, clk + flag_prolog)
                    clk += flag_prolog
                    over += flag_prolog
                    att = True
                target = i1[i]
                if target <= 0:
                    if record:
                        span(i, OVERHEAD, clk, clk + flag_epilog)
                    clk += flag_epilog
                    over += flag_epilog
                else:
                    times = flag_times.get(i0[i], ())
                    if len(times) < target:
                        flag_waiters.setdefault(i0[i], []).append(
                            (pe, target))
                        break
                    t = times[target - 1]
                    if collect:
                        flag_waits.append(0.0 if t - clk < 0.0 else t - clk)
                    if t > clk:
                        if record:
                            span(i, IDLE, clk, clk + (t - clk))
                        bid += t - clk
                        clk = t
                    if record:
                        span(i, OVERHEAD, clk, clk + flag_epilog)
                    clk += flag_epilog
                    over += flag_epilog
            elif op == _RTSYS:
                if record:
                    span(i, RTSYS, clk, clk + f0[i])
                clk += f0[i]
                brt += f0[i]
            elif op == _BARRIER or op == _REDUCTION:
                # The rendezvous: a barrier (after its library prolog)
                # or a reduction arrives; the last member releases it.
                if not att:
                    if op == _BARRIER:
                        if record:
                            span(i, OVERHEAD, clk, clk + barrier_lib)
                        clk += barrier_lib
                        over += barrier_lib
                        gens, slots = bar_gens, bar_slots
                    else:
                        gens, slots = red_gens, red_slots
                    pk = pe * ngroups + i0[i]
                    gen = gens[pk]
                    gens[pk] = gen + 1
                    slot = gen * ngroups + i0[i]
                    rec = slots.get(slot)
                    if rec is None:
                        rec = [1, clk, None, []]
                        slots[slot] = rec
                    else:
                        rec[0] += 1
                        if clk > rec[1]:
                            rec[1] = clk
                    att = True
                    rec_of[pe] = rec
                    if rec[0] == i2[i]:
                        rec[2] = rec[1] + f0[i]
                        chain = chains.get(i)
                        if chain is not None:
                            break       # the superstep step, below
                        waiters = rec[3]
                        if waiters:
                            # Parked members are never queued: release
                            # them in arrival order, all at once.
                            rec[3] = None
                            queued.update(waiters)
                            runnable.extend(waiters)
                else:
                    rec = rec_of[pe]
                release = rec[2]
                if release is None:
                    rec[3].append(pe)
                    break
                w = 0.0 if release - clk < 0.0 else release - clk
                if op == _BARRIER:
                    if collect:
                        barrier_waits.append(w)
                else:
                    # The member is busy for its share of the reduction
                    # and idles for the rest of the establishment window.
                    if not w < f1[i]:
                        w = f1[i]
                    if record:
                        span(i, OVERHEAD, clk, clk + w)
                    clk += w
                    over += w
                if release > clk:
                    if record:
                        span(i, IDLE, clk, clk + (release - clk))
                    bid += release - clk
                    clk = release
            elif op == _GET:
                if record:
                    span(i, OVERHEAD, clk, clk + get_send_cpu)
                clk += get_send_cpu
                over += get_send_cpu
                depart = clk + dma_setup
                sfl = i2[i]
                if sfl:
                    record_flag(sfl, depart + send_flag_tail)
                partner = i0[i]
                key = pe * n + partner
                raw = depart + f0[i]
                if contend:
                    raw = contended(plan[i][0], depart, raw)
                last = chan_last.get(key, _NEVER)
                if depart >= last[0]:
                    req_arrival = last[1] if last[1] > raw else raw
                    chan_last[key] = (depart, req_arrival)
                else:
                    req_arrival = raw
                reply_depart = req_arrival + f1[i]
                if partner == pe:
                    th += f3[i]
                else:
                    theft[partner] += f3[i]
                key = partner * n + pe
                raw = reply_depart + f2[i]
                if contend:
                    raw = contended(plan[i][1], reply_depart, raw)
                last = chan_last.get(key, _NEVER)
                if reply_depart >= last[0]:
                    reply_arrival = last[1] if last[1] > raw else raw
                    chan_last[key] = (reply_depart, reply_arrival)
                else:
                    reply_arrival = raw
                rfl = i3[i]
                if rfl:
                    record_flag(rfl, reply_arrival + f4[i])
                th += f5[i]
                if record:
                    flow(i, depart, req_arrival)
                    flow(i, reply_depart, reply_arrival)
            elif op == _SEND:
                if record:
                    span(i, OVERHEAD, clk, clk + f0[i])
                clk += f0[i]
                over += f0[i]
                depart = clk + dma_setup
                # SEND is blocking: the library spins until the transfer
                # leaves the cell, and that wait counts as overhead
                # (section 5.4, CG).
                blocked = depart + f1[i] - clk
                if blocked > 0:
                    if record:
                        span(i, OVERHEAD, clk, clk + blocked)
                    clk += blocked
                    over += blocked
                partner = i0[i]
                key = pe * n + partner
                raw = depart + f2[i]
                if contend:
                    raw = contended(plan[i], depart, raw)
                last = chan_last.get(key, _NEVER)
                if depart >= last[0]:
                    arrival = last[1] if last[1] > raw else raw
                    chan_last[key] = (depart, arrival)
                else:
                    arrival = raw
                ready = arrival + f3[i]
                if partner == pe:
                    th += f4[i]
                else:
                    theft[partner] += f4[i]
                if record:
                    flow(i, depart, arrival)
                msg = i2[i]
                ring_arrival[msg] = ready
                waiter = ring_waiters.pop(msg, None)
                if waiter is not None and waiter not in queued:
                    queued.add(waiter)
                    runnable.append(waiter)
            elif op == _RECV:
                if not att:
                    if record:
                        span(i, OVERHEAD, clk, clk + recv_lib)
                    clk += recv_lib
                    over += recv_lib
                    att = True
                ready = ring_arrival.get(i0[i])
                if ready is None:
                    ring_waiters[i0[i]] = pe
                    break
                if ready > clk:
                    if record:
                        span(i, IDLE, clk, clk + (ready - clk))
                    bid += ready - clk
                    clk = ready
                if record:
                    span(i, OVERHEAD, clk, clk + f0[i])
                clk += f0[i]
                over += f0[i]
            elif op == _REMOTE_LOAD:
                if record:
                    span(i, OVERHEAD, clk, clk + remote_access)
                clk += remote_access
                over += remote_access
                t = clk + f0[i]
                if t > clk:
                    if record:
                        span(i, IDLE, clk, clk + (t - clk))
                    bid += t - clk
                    clk = t
            elif op == _REMOTE_STORE:
                if record:
                    span(i, OVERHEAD, clk, clk + remote_access)
                clk += remote_access
                over += remote_access
                partner = i0[i]
                if partner == pe:
                    th += f0[i]
                else:
                    theft[partner] += f0[i]
            elif op == _CREG:
                if record:
                    span(i, OVERHEAD, clk, clk + creg_access)
                clk += creg_access
                over += creg_access
            elif op == _RUN:
                clk, over, th = run_step(
                    at[i], clk, over, th, chan_last, theft, flag_times,
                    flag_waiters, queued, runnable)
            elif record:
                # _INSTANT (the link layer and the queue spill hardware
                # run concurrently with the processor) and _PHASE (a user
                # annotation) take no simulated time: a mark at most.
                mk_event.append(i)
                mk_t.append(clk)
            i += 1
            att = False
        st[:] = i, clk, over, att, bex, brt, bid
        theft[pe] = th
        if chain is not None:
            # This PE released the collective that opens a chain, every
            # other PE parked there: one step takes them all to the
            # release of its last collective.
            waits = chain_step(chain, pe, rec, state, theft, rec_of,
                               (bar_gens, red_gens), ngroups, runnable,
                               queued, collect)
            if waits is not None:
                chain_waits.append((len(barrier_waits), waits))
            chain = None

    unfinished = [pe for pe in range(n) if state[pe][0] < ends[pe]]
    if unfinished:
        raise SimulationError(
            f"replay deadlock: PEs {unfinished[:16]} parked forever "
            "(trace and timing model disagree)")

    # One per PE: positionally (execution, rtsys, overhead, idle, clock),
    # which halves what keyword arguments cost on a wide trace.
    per_pe = [PEBreakdown(st[4], st[5], st[2], st[6], st[1])
              for st in state]
    result = MLSimResult(model_name=p.name, per_pe=per_pe,
                         messages=index.messages,
                         bytes_on_wire=index.bytes_on_wire)
    if record:
        result.timeline = Timeline(
            columns, (sp_event, sp_code, sp_start, sp_end),
            (fl_event, fl_depart, fl_arrival), (mk_event, mk_t))
    if collect:
        elapsed = max((st[1] for st in state), default=0.0)
        dma_busy, link_busy = program.busy()
        links = {
            f"{tail}->{head}": {
                "busy_us": busy,
                "bytes": nbytes,
                "frames": frames,
                "utilization": busy / elapsed if elapsed else 0.0,
            } for (tail, head), busy, nbytes, frames in zip(
                index.link_table, link_busy, *index.link_charges()[3:])}
        dma_max = max(dma_busy, default=0.0)
        result.metrics = {
            "schema": REPLAY_SCHEMA,
            "model": p.name,
            "elapsed_us": elapsed,
            "waits": {
                "flag_wait": Histogram.of(flag_waits).to_dict(),
                "barrier_wait": Histogram.of(_in_place(
                    barrier_waits, chain_waits)).to_dict(),
            },
            "dma": {
                "busy_us": list(dma_busy),
                "busy_us_max": dma_max,
                "busy_fraction_max": dma_max / elapsed if elapsed else 0.0,
            },
            "links": links,
            "links_max_utilization": max(
                (v["utilization"] for v in links.values()), default=0.0),
            "robustness": dict(index.instant_counts),
        }
    return result
