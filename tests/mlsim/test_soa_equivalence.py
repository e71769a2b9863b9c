"""Oracle equivalence: the production replay vs the scalar engine.

The contract is byte-identical output: for any trace, any preset and
any combination of options, ``replay_columns`` must produce exactly
what the scalar ``MLSimEngine`` (``reference_engine.py``, the engine
``src/`` shipped until PR 24) produces — per-PE breakdowns, message
counts, the full metrics block, the timeline (spans, flows, instants
and phase marks: equal values in equal order) and, with
``link_contention``, the serialized arrivals behind all of those.
These tests compare complete result documents (via ``json.dumps`` with
sorted keys, so float bit patterns matter) and timelines row by row on
real workloads, on a synthetic trace that covers the event kinds the
shipped applications rarely exercise, and on generated traces full of
equal operands.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.workloads import workload
from repro.bench.cache import jsonify
from repro.core.errors import SimulationError
from repro.mlsim import engine_soa, supersteps
from repro.mlsim.engine_soa import compile_program, replay_columns, trace_index
from repro.mlsim.params import MLSimParams, preset
from repro.mlsim.runs import fifo
from repro.network.topology import TorusTopology
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent
from repro.trace.soa import columns_from_buffer

from .reference_engine import MLSimEngine
from tests.trace.views import record

PRESETS = ("ap1000", "ap1000-fast", "ap1000+")


def result_doc(result) -> str:
    """Canonical byte-exact rendering of a full MLSimResult."""
    return json.dumps(jsonify(asdict(replace(result, timeline=None))),
                      sort_keys=True)


def timeline_rows(timeline) -> tuple:
    return ([timeline.spans_for(pe) for pe in range(timeline.num_pes)],
            timeline.flows, timeline.instants, timeline.phase_marks)


def assert_equivalent(trace: TraceBuffer, params=None,
                      collect: bool = True) -> None:
    """Every option combination the oracle and production share."""
    trace.coalesce_compute()
    columns = columns_from_buffer(trace)
    for p in params or map(preset, PRESETS):
        for contend in (False, True):
            engine = MLSimEngine(trace, p, None, link_contention=contend,
                                 record_timeline=True,
                                 collect_metrics=collect)
            ref = engine.run()
            soa = replay_columns(columns, p, link_contention=contend,
                                 record_timeline=True,
                                 collect_metrics=collect)
            assert result_doc(soa) == result_doc(ref), (p.name, contend)
            assert timeline_rows(soa.timeline) == timeline_rows(
                engine.timeline), (p.name, contend)
            plain = replay_columns(columns, p, link_contention=contend,
                                   collect_metrics=collect)
            assert plain.timeline is None
            assert result_doc(plain) == result_doc(ref), (p.name, contend)


WORKLOAD_CASES = {
    "EP": dict(num_cells=8, log2_pairs=10),
    "CG": dict(num_cells=16, n=120, outer=2, inner=5),
    "MatMul": dict(num_cells=16, n=64),
    "RingShift": dict(num_cells=16, hops=48),
    "PingPong": dict(num_cells=16, iters=24),
    # Six runs of 99 PUT/GET rows: replayed as run steps, and row by row
    # under a timeline or link contention.
    "TC no st": dict(num_cells=4, n=33, iters=1, use_stride=False),
}


class TestGoldenWorkloads:
    """Real traces x every preset, full results compared bytewise."""

    @pytest.mark.parametrize("app", sorted(WORKLOAD_CASES))
    def test_replay_byte_identical(self, app):
        run = workload(app).runner(**WORKLOAD_CASES[app])
        assert run.verified
        assert_equivalent(run.trace)


class TestSyntheticCoverage:
    """Event kinds the shipped grids barely touch, in one dense trace."""

    def _trace(self) -> TraceBuffer:
        buf = TraceBuffer(num_pes=4)
        phase = buf.phase_id("synthetic")
        events = [
            TraceEvent(EventKind.PHASE, pe=0, flag=phase),
            # Strided PUT with both flags, plus a self-send.
            TraceEvent(EventKind.PUT, pe=0, partner=1, size=512,
                       stride=True, send_flag=11, recv_flag=12),
            TraceEvent(EventKind.PUT, pe=2, partner=2, size=64,
                       recv_flag=13),
            TraceEvent(EventKind.FLAG_WAIT, pe=2, flag=13, target=1),
            TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=12, target=1),
            TraceEvent(EventKind.GET, pe=1, partner=0, size=256,
                       send_flag=14, recv_flag=15),
            TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=15, target=1),
            # Two-sided pair.
            TraceEvent(EventKind.SEND, pe=3, partner=0, size=128,
                       msg_id=7),
            TraceEvent(EventKind.RECV, pe=0, partner=3, size=128,
                       msg_id=7),
            # Shared-memory and communication-register traffic.
            TraceEvent(EventKind.REMOTE_LOAD, pe=2, partner=3, size=8),
            TraceEvent(EventKind.REMOTE_STORE, pe=3, partner=2, size=8),
            TraceEvent(EventKind.CREG_STORE, pe=0, partner=2, size=4),
            TraceEvent(EventKind.CREG_LOAD, pe=2, partner=2, size=4),
            # Zero-cost robustness instants between costed events.
            TraceEvent(EventKind.RETRY, pe=1, partner=0),
            TraceEvent(EventKind.TIMEOUT, pe=3),
            TraceEvent(EventKind.SPILL, pe=0, size=16),
            # Compute/RTSYS runs that the coalescer merges.
            TraceEvent(EventKind.COMPUTE, pe=1, work=5.0),
            TraceEvent(EventKind.COMPUTE, pe=1, work=7.0),
            TraceEvent(EventKind.RTSYS, pe=2, work=3.0),
            TraceEvent(EventKind.RTSYS, pe=2, work=4.0),
            # Collectives: barrier plus scalar and vector reductions.
            TraceEvent(EventKind.BARRIER, pe=0, group=0, group_size=4),
            TraceEvent(EventKind.BARRIER, pe=1, group=0, group_size=4),
            TraceEvent(EventKind.BARRIER, pe=2, group=0, group_size=4),
            TraceEvent(EventKind.BARRIER, pe=3, group=0, group_size=4),
            TraceEvent(EventKind.GOP, pe=0, group=0, group_size=4,
                       size=8),
            TraceEvent(EventKind.GOP, pe=1, group=0, group_size=4,
                       size=8),
            TraceEvent(EventKind.GOP, pe=2, group=0, group_size=4,
                       size=8),
            TraceEvent(EventKind.GOP, pe=3, group=0, group_size=4,
                       size=8),
            TraceEvent(EventKind.VGOP, pe=0, group=0, group_size=4,
                       size=256),
            TraceEvent(EventKind.VGOP, pe=1, group=0, group_size=4,
                       size=256),
            TraceEvent(EventKind.VGOP, pe=2, group=0, group_size=4,
                       size=256),
            TraceEvent(EventKind.VGOP, pe=3, group=0, group_size=4,
                       size=256),
        ]
        for ev in events:
            record(buf, ev)
        return buf

    def test_synthetic_trace_byte_identical(self):
        assert_equivalent(self._trace())


class TestDiscoveryOrder:
    """A GET reply is injected by the *target's* MSC+ the moment the
    request arrives; the target's own later sends may have been
    processed first.  The FIFO clamp must not queue the early reply
    behind them (the link step, resolved in processing order, does: the
    approximation ``contended`` documents — and the oracle's too)."""

    def test_reply_discovered_after_a_later_injection(self):
        buf = TraceBuffer(num_pes=3)
        for ev in (
            # PE0 parks until PE2 (processed last) sends at time ~0 ...
            TraceEvent(EventKind.RECV, pe=0, partner=2, size=8, msg_id=1),
            # ... by which point PE1's late PUT 1 -> 0 is already known.
            TraceEvent(EventKind.COMPUTE, pe=1, work=100000.0),
            TraceEvent(EventKind.PUT, pe=1, partner=0, size=4096,
                       recv_flag=70),
            TraceEvent(EventKind.SEND, pe=2, partner=0, size=8, msg_id=1),
            # The reply travels 1 -> 0 and was injected long before.
            TraceEvent(EventKind.GET, pe=0, partner=1, size=4096,
                       recv_flag=80),
            TraceEvent(EventKind.FLAG_WAIT, pe=0, flag=80, target=1),
        ):
            record(buf, ev)
        assert_equivalent(buf)
        result = replay_columns(columns_from_buffer(buf), preset("ap1000+"),
                                record_timeline=True)
        put, _send, _request, reply = result.timeline.flows
        assert (reply.kind, reply.src, reply.dst) == ("GET-REPLY", 1, 0)
        assert reply.depart < put.depart and reply.arrival < put.depart


class TestUnknownKinds:
    """The refusal the scalar engine's dispatch gave, from the index."""

    @pytest.mark.parametrize("kind", [99, -1])
    def test_unknown_kind_is_a_simulation_error(self, kind):
        buf = TraceBuffer(num_pes=1)
        record(buf, TraceEvent(EventKind.COMPUTE, pe=0, work=1.0))
        columns = replace(columns_from_buffer(buf),
                          kind=np.array([kind], dtype=np.int16))
        with pytest.raises(SimulationError,
                           match=f"unknown trace event kind {kind}$"):
            replay_columns(columns, preset("ap1000+"))


# -- generated traces: the ties ------------------------------------------
#
# The interpreter's clamps are inline comparisons where the scalar
# engine calls ``min``/``max``; they must pick the same operand when the
# operands are equal.  Equality is the common case under a parameter
# file whose costs are all zero (every clock stays where computation
# left it), and shows up under the real presets with self-PUTs,
# zero-byte transfers, zero work and one-member groups.

FREE = MLSimParams(
    name="free", computation_factor=1.0, hardware_put_get=True,
    network_prolog_time=0.0, network_delay_time=0.0,
    network_epilog_time=0.0, put_msg_time=0.0, barrier_net_time=0.0,
    recv_copy_byte_time=0.0)
#: Every time parameter zero (the computation factor must be positive):
#: only work moves a clock.
ZERO = MLSimParams(name="zero", computation_factor=1.0,
                   hardware_put_get=True, **{
                       f.name: 0.0 for f in fields(MLSimParams)
                       if f.name not in ("name", "computation_factor",
                                         "hardware_put_get")})


@st.composite
def tie_scripts(draw):
    """(num_pes, steps): programs that cannot deadlock — every wait
    follows the transfer that satisfies it, every collective is issued
    by all members at once.  A PUT's receiver need not wait for it, so
    a cell may run ahead of traffic addressed to it (which is how a GET
    reply comes to be discovered out of injection order).  A burst is
    one PE's run of 1-300 PUT/GETs to 1-3 partners, itself included (see
    ``burst_rows``): long ones are replayed as one run step.  A
    collective burst is 1-24 whole-machine collectives with local rows
    between them (see ``collective_rows``): a chain of supersteps, too
    short for the step on this few PEs unless the break-even is
    lowered."""
    n = draw(st.integers(1, 5))
    pe = st.integers(0, n - 1)
    size = st.sampled_from([0, 0, 8, 64, 4096])
    work = st.sampled_from([0.0, 0.0, 1.5, 40.0, 100000.0])
    members = st.sets(pe, min_size=1)
    step = st.one_of(
        st.tuples(st.sampled_from(["compute", "rtsys"]), pe, work),
        st.tuples(st.just("put"), pe, pe, size, st.booleans(),
                  st.booleans()),
        st.tuples(st.just("get"), pe, pe, size),
        st.tuples(st.just("send"), pe, pe, size),
        st.tuples(st.just("barrier"), members, st.booleans()),
        st.tuples(st.sampled_from(["gop", "vgop"]), members,
                  st.booleans(), size),
        st.tuples(st.just("mark"), pe, st.sampled_from(
            ["RETRY", "TIMEOUT", "SPILL", "phase a", "phase b"])),
        st.tuples(st.just("burst"), pe,
                  st.lists(pe, min_size=1, max_size=3, unique=True),
                  st.integers(1, 300), st.integers(0, 2**16)),
        st.tuples(st.just("collectives"), st.integers(1, 24),
                  st.integers(0, 2**16)),
    )
    return n, draw(st.lists(step, max_size=16))


def burst_rows(buf: TraceBuffer, n: int, src: int, partners, count: int,
               seed: int, counts: dict[int, int]) -> None:
    """``count`` PUT/GETs from ``src`` (zero-size acknowledging GETs
    among them, some with send flags), then waits on the flags they
    raised by any PE, for the last count or any earlier one: a PE that
    gets there first parks, and the burst wakes it."""
    rng = random.Random(seed)
    raised = set()
    get_share = rng.choice([0.1, 0.5, 0.9])
    for _ in range(count):
        dst = rng.choice(partners)
        get = rng.random() < get_share
        sent = 1 + src if rng.random() < 0.2 else 0
        landed = 0
        if rng.random() < 0.8:
            landed = (200 if get else 100) + src * n + dst
        record(buf, TraceEvent(
            EventKind.GET if get else EventKind.PUT, pe=src, partner=dst,
            size=rng.choice([0, 0, 8, 64, 4096]), send_flag=sent,
            recv_flag=landed))
        for flag in (sent, landed):
            if flag:
                raised.add(flag)
                counts[flag] = counts.get(flag, 0) + 1
    for flag in sorted(raised):
        for waiter in range(n):
            if rng.random() < 0.4:
                reached = counts[flag]
                if rng.random() < 0.5:
                    reached = rng.randint(1, reached)
                record(buf, TraceEvent(EventKind.FLAG_WAIT, pe=waiter,
                                       flag=flag, target=reached))


def collective_rows(buf: TraceBuffer, n: int, count: int,
                    seed: int) -> None:
    """``count`` whole-machine collectives of drawn kinds, before each
    one every PE's own draw of zero to four local rows — COMPUTE,
    RTSYS, CREG_*, a PHASE mark or a robustness instant — so PEs hold
    unequal numbers of them and a segment may be empty on every PE.  A
    VGOP's size is drawn per PE, and the group size is explicit or
    left to the group table."""
    rng = random.Random(seed)
    phase = buf.phase_id("superstep")
    for _ in range(count):
        kind = rng.choice([EventKind.BARRIER, EventKind.GOP,
                           EventKind.VGOP])
        explicit = rng.random() < 0.5
        for pe in range(n):
            for _ in range(rng.choice([0, 0, 1, 1, 2, 4])):
                local = rng.choice([EventKind.COMPUTE, EventKind.RTSYS,
                                    EventKind.CREG_STORE,
                                    EventKind.CREG_LOAD, EventKind.PHASE,
                                    EventKind.RETRY, EventKind.SPILL])
                if local in (EventKind.COMPUTE, EventKind.RTSYS):
                    # Inexact sums too: the barrier-wait total then
                    # depends on the order it is summed in.
                    event = TraceEvent(local, pe=pe, work=rng.choice(
                        [0.0, 1.5, 0.1, 1000.0 / 3, 123456.789]))
                elif local == EventKind.PHASE:
                    event = TraceEvent(local, pe=pe, flag=phase)
                else:
                    event = TraceEvent(local, pe=pe, partner=pe, size=4)
                record(buf, event)
            record(buf, TraceEvent(
                kind, pe=pe, group=0, group_size=n if explicit else 0,
                size=(0 if kind == EventKind.BARRIER else 8
                      if kind == EventKind.GOP
                      else rng.choice([8, 64, 4096]))))


def tie_trace(n: int, steps) -> TraceBuffer:
    buf = TraceBuffer(num_pes=n)
    assert buf.groups is not None
    counts: dict[int, int] = {}

    def bump(flag: int) -> int:
        counts[flag] = counts.get(flag, 0) + 1
        return counts[flag]

    for serial, step in enumerate(steps):
        name = step[0]
        if name in ("compute", "rtsys"):
            kind = (EventKind.COMPUTE if name == "compute"
                    else EventKind.RTSYS)
            record(buf, TraceEvent(kind, pe=step[1], work=step[2]))
        elif name == "put":
            _, src, dst, nbytes, wait_send, wait_recv = step
            sent, landed = 1 + src, 100 + src * n + dst
            record(buf, TraceEvent(
                EventKind.PUT, pe=src, partner=dst, size=nbytes,
                send_flag=sent if wait_send else 0, recv_flag=landed))
            if wait_send:
                record(buf, TraceEvent(EventKind.FLAG_WAIT, pe=src,
                                       flag=sent, target=bump(sent)))
            target = bump(landed)
            if wait_recv:
                record(buf, TraceEvent(EventKind.FLAG_WAIT, pe=dst,
                                       flag=landed, target=target))
        elif name == "get":
            _, src, dst, nbytes = step
            back = 200 + src * n + dst
            record(buf, TraceEvent(EventKind.GET, pe=src, partner=dst,
                                   size=nbytes, recv_flag=back))
            record(buf, TraceEvent(EventKind.FLAG_WAIT, pe=src, flag=back,
                                   target=bump(back)))
        elif name == "send":
            _, src, dst, nbytes = step
            record(buf, TraceEvent(EventKind.SEND, pe=src, partner=dst,
                                   size=nbytes, msg_id=serial + 1))
            record(buf, TraceEvent(EventKind.RECV, pe=dst, partner=src,
                                   size=nbytes, msg_id=serial + 1))
        elif name == "mark":
            _, where, what = step
            if what.startswith("phase"):
                record(buf, TraceEvent(EventKind.PHASE, pe=where,
                                       flag=buf.phase_id(what)))
            else:
                record(buf, TraceEvent(EventKind[what], pe=where))
        elif name == "burst":
            burst_rows(buf, n, *step[1:], counts)
        elif name == "collectives":
            collective_rows(buf, n, *step[1:])
        elif name == "remote":
            _, src, dst, store = step
            record(buf, TraceEvent(
                EventKind.REMOTE_STORE if store else EventKind.REMOTE_LOAD,
                pe=src, partner=dst, size=8))
        elif name == "mixed":       # one whole-machine reduction, by kind
            for member, kind in enumerate(step[1]):
                record(buf, TraceEvent(EventKind[kind], pe=member, group=0,
                                       group_size=n, size=64))
        else:
            group, explicit = sorted(step[1]), step[2]
            gid = buf.groups.intern(tuple(group))
            kind = {"barrier": EventKind.BARRIER, "gop": EventKind.GOP,
                    "vgop": EventKind.VGOP}[name]
            for member in group:
                record(buf, TraceEvent(
                    kind, pe=member, group=gid,
                    group_size=len(group) if explicit else 0,
                    size=step[3] if name != "barrier" else 0))
    return buf


class TestGeneratedTies:
    @settings(max_examples=80, deadline=None)
    @given(tie_scripts(), st.booleans(), st.booleans())
    # TestDiscoveryOrder's shape, in the generator's vocabulary.
    @example((3, [("send", 2, 0, 8), ("compute", 1, 100000.0),
                  ("put", 1, 0, 4096, False, False),
                  ("get", 0, 1, 4096)]), True, False)
    @example((1, [("collectives", 3, 0)]), True, True)
    def test_scalar_and_soa_agree_bit_for_bit(self, script, collect,
                                              every_chain):
        """``every_chain``: with the superstep step's break-even at zero,
        so that every chain of supersteps is one step."""
        trace = tie_trace(*script)
        with (mock.patch.multiple(engine_soa, _CHAIN_MIN=0, _CHAIN_STEP=0)
              if every_chain else nullcontext()):
            assert_equivalent(trace, (*map(preset, PRESETS), FREE), collect)


#: Bursts on both sides of the run step's threshold (``_RUN_MIN``).
BURSTS = {
    # PEs 0 and 1 run first and park on flags the burst raises, for
    # counts it reaches in its middle: the wake order.
    "parked partners": (3, [("burst", 2, [0, 1], 200, 7)]),
    "parked partners, short": (3, [("burst", 2, [0, 1], 20, 7)]),
    # The burst wakes PEs out of flag-id order, and the order they run
    # in decides the clamps and theft sums that follow.
    "wake order decides a clamp": (4, [
        ("burst", 3, [2, 1, 0], 87, 887), ("compute", 2, 1.5),
        ("get", 3, 1, 4096)]),
    # PE 1's late PUT 1 -> 0 is known before PE 0's GETs to 1: their
    # replies depart before the channel's last packet.
    "replies out of order": (3, [
        ("send", 2, 0, 8), ("compute", 1, 100000.0),
        ("put", 1, 0, 4096, False, False), ("burst", 0, [1], 120, 5)]),
    "replies out of order, short": (3, [
        ("send", 2, 0, 8), ("compute", 1, 100000.0),
        ("put", 1, 0, 4096, False, False), ("burst", 0, [1], 20, 5)]),
    # The PE among its partners: self-PUTs ride in a run, self-GETs
    # end one.
    "self among three": (4, [("compute", 0, 40.0),
                             ("burst", 3, [3, 0, 2], 300, 2)]),
    "self and one": (2, [("burst", 1, [1, 0], 150, 1)]),
}


class TestBursts:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                              st.sampled_from([0.0, 0.5, 3.0])),
                    min_size=1, max_size=12),
           st.one_of(st.none(), st.tuples(
               st.sampled_from([-1.0, 0.0, 2.5, 9.0]),
               st.sampled_from([0.0, 3.0, 12.0]))))
    def test_channel_clamp_is_the_loops(self, transfers, last):
        """``fifo`` against the loop's rule, departures out of order."""
        depart = np.array([d for d, _ in transfers])
        raw = depart + np.array([w for _, w in transfers])
        want, chan = [], last
        for d, r in zip(depart.tolist(), raw.tolist()):
            if chan is None:
                chan = (d, 0.0 if r < 0.0 else r)
                want.append(chan[1])
            elif d >= chan[0]:
                chan = (d, chan[1] if chan[1] > r else r)
                want.append(chan[1])
            else:
                want.append(r)
        got, got_chan = fifo(depart, raw, last)
        assert (got.tolist(), got_chan) == (want, chan)

    @pytest.mark.parametrize("name", sorted(BURSTS))
    def test_burst_replays_bit_for_bit(self, name):
        trace = tie_trace(*BURSTS[name])
        assert_equivalent(trace, (*map(preset, PRESETS), FREE))
        runs = trace_index(columns_from_buffer(trace)).runs
        assert bool(runs) == ("short" not in name), sorted(runs)

    def test_runs_are_maximal_stretches_of_one_pe(self):
        buf = TraceBuffer(num_pes=2)
        for pe in (0, 1):
            for k in range(40):
                record(buf, TraceEvent(EventKind.PUT, pe=pe, partner=1 - pe,
                                       size=8))
        # A self-GET ends PE 1's stretch: 40 + 39 rows around it.
        record(buf, TraceEvent(EventKind.GET, pe=1, partner=1, size=8))
        for k in range(39):
            record(buf, TraceEvent(EventKind.GET, pe=1, partner=0, size=8))
        runs = trace_index(columns_from_buffer(buf)).runs
        assert [(r.start, r.stop, r.pe) for r in runs.values()] == [
            (0, 40, 0), (40, 80, 1), (81, 120, 1)]


def chains_of(trace: TraceBuffer) -> list[int]:
    """The superstep counts of the chains the trace is replayed in."""
    plan = trace_index(columns_from_buffer(trace)).supersteps
    return [] if plan is None else [chain.m for chain in plan.chains]


#: Traces of whole-machine collectives: the shapes a chain can take and
#: what ends one, on both sides of the break-even.
SUPERSTEPS = {
    # Unequal local rows, segments empty on every PE, PHASE marks and
    # instants, VGOPs of differing sizes.
    "unequal segments": (16, [("collectives", 30, 1)], [29]),
    "four PEs": (4, [("collectives", 90, 2)], [89]),
    # PE 15 runs last: its PUTs leave theft pending on PEs parked at
    # the collective that opens the chain, and on itself.
    "pending theft": (16, [
        *(("put", 15, dst, 4096, False, False) for dst in range(16)),
        ("mark", 3, "RETRY"), ("collectives", 24, 3)], [23]),
    "ended by a subgroup collective": (16, [
        ("collectives", 20, 4), ("barrier", {0, 1, 2}, True),
        ("collectives", 20, 5)], [19, 19]),
    "ended by a PUT": (16, [
        ("collectives", 20, 6), ("put", 3, 5, 64, False, True),
        ("collectives", 20, 7)], [19, 19]),
    "ended by a remote load": (16, [
        ("collectives", 20, 8), ("remote", 2, 7, False),
        ("collectives", 20, 9)], [19, 19]),
    "ended by a remote store": (16, [
        ("collectives", 20, 10), ("remote", 2, 7, True),
        ("collectives", 20, 11)], [19, 19]),
    # GOP on PE 0, VGOP elsewhere: one rendezvous to the loop, but not
    # one kind, so no superstep closes there.
    "mismatched kinds": (16, [
        ("collectives", 15, 12), ("mixed", ("GOP",) + ("VGOP",) * 15),
        ("collectives", 15, 13)], [14, 14]),
    "short": (16, [("collectives", 4, 14)], []),
    "four PEs, short": (4, [("collectives", 40, 2)], []),
}


class TestSupersteps:
    @pytest.mark.parametrize("name", sorted(SUPERSTEPS))
    def test_chain_replays_bit_for_bit(self, name):
        n, script, chains = SUPERSTEPS[name]
        trace = tie_trace(n, script)
        assert_equivalent(trace, (*map(preset, PRESETS), FREE, ZERO))
        assert chains_of(trace) == chains

    def test_a_chain_ends_at_the_trace_end(self):
        trace = tie_trace(16, [("put", 0, 1, 8, False, False),
                               ("collectives", 24, 15)])
        assert_equivalent(trace, (preset("ap1000"), ZERO))
        index = trace_index(columns_from_buffer(trace))
        last = index.supersteps.chains[-1]
        assert last.close == (index.columns.starts[1:] - 1).tolist()

    def test_pending_theft_enters_the_chain(self, monkeypatch):
        pending = []
        step = supersteps.ChainCosts.replay

        def spied(self, chain, pe, rec, state, theft, *args):
            pending.append(list(theft))
            return step(self, chain, pe, rec, state, theft, *args)

        monkeypatch.setattr(supersteps.ChainCosts, "replay", spied)
        _, script, _ = SUPERSTEPS["pending theft"]
        replay_columns(columns_from_buffer(tie_trace(16, script)),
                       preset("ap1000"))
        [theft] = pending
        assert all(theft[:15]) and not theft[15], theft

    def test_timeline_and_contention_decline_the_step(self, monkeypatch):
        calls = []
        step = supersteps.ChainCosts.replay

        def counted(self, *args):
            calls.append(args[0])
            return step(self, *args)

        monkeypatch.setattr(supersteps.ChainCosts, "replay", counted)
        columns = columns_from_buffer(tie_trace(16, [("collectives", 30,
                                                      16)]))
        plus = preset("ap1000+")
        replay_columns(columns, plus, collect_metrics=True)
        assert len(calls) == 1
        replay_columns(columns, plus, record_timeline=True)
        replay_columns(columns, plus, link_contention=True)
        assert len(calls) == 1


class TestProgramRefusals:
    """A compiled program replays only the columns, torus and params it
    was compiled for; anything else would be a wrong result, not an
    error."""

    @pytest.fixture(scope="class")
    def ring(self):
        return columns_from_buffer(
            workload("RingShift").runner(num_cells=8).trace)

    def test_its_own_program_is_the_plain_replay(self, ring):
        plus = preset("ap1000+")
        program = compile_program(ring, plus)
        assert result_doc(replay_columns(ring, plus, program=program)) \
            == result_doc(replay_columns(ring, plus))

    def test_other_columns(self, ring):
        other = columns_from_buffer(
            workload("PingPong").runner(num_cells=8).trace)
        program = compile_program(other, preset("ap1000+"))
        with pytest.raises(SimulationError,
                           match="compiled for other trace columns$"):
            replay_columns(ring, preset("ap1000+"), program=program)

    def test_another_torus(self, ring):
        program = compile_program(ring, preset("ap1000+"),
                                  TorusTopology(8, 1))
        with pytest.raises(SimulationError, match=r"another torus "
                           r"\(8x1, not 4x2\)$"):
            replay_columns(ring, preset("ap1000+"), program=program)
        with pytest.raises(SimulationError, match=r"another torus "
                           r"\(4x2, not 8x1\)$"):
            replay_columns(ring, preset("ap1000+"), TorusTopology(8, 1),
                           program=compile_program(ring, preset("ap1000+")))

    def test_other_params(self, ring):
        plus = preset("ap1000+")
        program = compile_program(ring, preset("ap1000-fast"))
        with pytest.raises(SimulationError, match=r"other params "
                           r"\('AP1000/SuperSPARC', not 'AP1000\+'\)$"):
            replay_columns(ring, plus, program=program)
        slower = replace(plus, network_delay_time=1.0, put_msg_time=0.1)
        with pytest.raises(SimulationError, match=r"other params "
                           r"\(network_delay_time, put_msg_time differ\)$"):
            replay_columns(ring, slower,
                           program=compile_program(ring, plus))
