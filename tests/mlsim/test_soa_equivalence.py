"""Golden equivalence: the vectorized SoA replay vs the reference engine.

The refactor's contract is byte-identical output: for any trace and any
preset, ``replay_columns`` must produce exactly the result the scalar
``MLSimEngine`` produces — per-PE breakdowns, message counts, and the
full metrics block.  These tests compare complete result dictionaries
(via ``json.dumps`` with sorted keys, so float bit patterns matter) on
real workloads, on a synthetic trace that covers the event kinds the
shipped applications rarely exercise, and on generated traces full of
equal operands.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workloads import workload
from repro.bench.cache import jsonify
from repro.mlsim import simulator
from repro.mlsim.engine import MLSimEngine
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import MLSimParams, preset
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent
from repro.trace.soa import columns_from_buffer

PRESETS = ("ap1000", "ap1000-fast", "ap1000+")


def result_doc(result) -> str:
    """Canonical byte-exact rendering of a full MLSimResult."""
    return json.dumps(jsonify(asdict(result)), sort_keys=True)


def assert_equivalent(trace: TraceBuffer, preset_names=PRESETS) -> None:
    trace.coalesce_compute()
    columns = columns_from_buffer(trace)
    for name in preset_names:
        p = preset(name)
        ref = MLSimEngine(trace, p, None, collect_metrics=True).run()
        soa = replay_columns(columns, p, collect_metrics=True)
        assert result_doc(soa) == result_doc(ref), name


WORKLOAD_CASES = {
    "EP": dict(num_cells=8, log2_pairs=10),
    "CG": dict(num_cells=16, n=120, outer=2, inner=5),
    "MatMul": dict(num_cells=16, n=64),
    "RingShift": dict(num_cells=16, hops=48),
    "PingPong": dict(num_cells=16, iters=24),
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
            buf.record(ev)
        return buf

    def test_synthetic_trace_byte_identical(self):
        assert_equivalent(self._trace())


class TestSimulateRoute:
    """``simulate`` picks its engine from its arguments: the scalar one
    exactly when link contention, which only it models, is asked for."""

    def test_scalar_engine_runs_exactly_for_link_contention(
            self, monkeypatch):
        built = []

        class Spy(MLSimEngine):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["link_contention"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator, "MLSimEngine", Spy)
        trace = workload("MatMul").runner(num_cells=4, n=24).trace
        p = preset("ap1000+")
        fast = simulator.simulate(trace, p, collect_metrics=True)
        assert built == []
        simulator.simulate(trace, p, link_contention=True)
        assert built == [True]
        ref = MLSimEngine(trace, p, collect_metrics=True).run()
        assert result_doc(fast) == result_doc(ref)


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


@st.composite
def tie_scripts(draw):
    """(num_pes, steps): programs that cannot deadlock — every wait
    follows the transfer that satisfies it, every collective is issued
    by all members at once."""
    n = draw(st.integers(1, 5))
    pe = st.integers(0, n - 1)
    size = st.sampled_from([0, 0, 8, 64, 4096])
    work = st.sampled_from([0.0, 0.0, 1.5, 40.0])
    members = st.sets(pe, min_size=1)
    step = st.one_of(
        st.tuples(st.sampled_from(["compute", "rtsys"]), pe, work),
        st.tuples(st.just("put"), pe, pe, size, st.booleans()),
        st.tuples(st.just("get"), pe, pe, size),
        st.tuples(st.just("send"), pe, pe, size),
        st.tuples(st.just("barrier"), members, st.booleans()),
        st.tuples(st.sampled_from(["gop", "vgop"]), members,
                  st.booleans(), size),
    )
    return n, draw(st.lists(step, max_size=16))


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
            buf.record(TraceEvent(kind, pe=step[1], work=step[2]))
        elif name == "put":
            _, src, dst, nbytes, wait_send = step
            sent, landed = 1 + src, 100 + src * n + dst
            buf.record(TraceEvent(
                EventKind.PUT, pe=src, partner=dst, size=nbytes,
                send_flag=sent if wait_send else 0, recv_flag=landed))
            if wait_send:
                buf.record(TraceEvent(EventKind.FLAG_WAIT, pe=src,
                                      flag=sent, target=bump(sent)))
            buf.record(TraceEvent(EventKind.FLAG_WAIT, pe=dst,
                                  flag=landed, target=bump(landed)))
        elif name == "get":
            _, src, dst, nbytes = step
            back = 200 + src * n + dst
            buf.record(TraceEvent(EventKind.GET, pe=src, partner=dst,
                                  size=nbytes, recv_flag=back))
            buf.record(TraceEvent(EventKind.FLAG_WAIT, pe=src, flag=back,
                                  target=bump(back)))
        elif name == "send":
            _, src, dst, nbytes = step
            buf.record(TraceEvent(EventKind.SEND, pe=src, partner=dst,
                                  size=nbytes, msg_id=serial + 1))
            buf.record(TraceEvent(EventKind.RECV, pe=dst, partner=src,
                                  size=nbytes, msg_id=serial + 1))
        else:
            group, explicit = sorted(step[1]), step[2]
            gid = buf.groups.intern(tuple(group))
            kind = {"barrier": EventKind.BARRIER, "gop": EventKind.GOP,
                    "vgop": EventKind.VGOP}[name]
            for member in group:
                buf.record(TraceEvent(
                    kind, pe=member, group=gid,
                    group_size=len(group) if explicit else 0,
                    size=step[3] if name != "barrier" else 0))
    return buf


class TestGeneratedTies:
    @settings(max_examples=80, deadline=None)
    @given(tie_scripts(), st.booleans())
    def test_scalar_and_soa_agree_bit_for_bit(self, script, collect):
        trace = tie_trace(*script)
        trace.coalesce_compute()
        columns = columns_from_buffer(trace)
        for p in (*map(preset, PRESETS), FREE):
            ref = MLSimEngine(trace, p, None, collect_metrics=collect).run()
            soa = replay_columns(columns, p, collect_metrics=collect)
            assert result_doc(soa) == result_doc(ref), p.name
