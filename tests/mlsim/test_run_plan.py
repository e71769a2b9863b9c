"""The one-pass run plan against the per-run planner it replaced.

``repro.mlsim.runs.Runs`` plans every run of a trace in array
operations over all of their rows; ``reference_runs.Run`` planned one
run at a time.  Replays compare results (``test_soa_equivalence.py``);
this compares the plans themselves, field by field, so a plan that is
wrong where no replay happens to look still fails: on every ``BURSTS``
trace, on generated traces with the run step's break-even lowered so
that most stretches of PUT/GET rows are runs, and on a bench-size
TOMCATV without stride (30 runs of 195 rows on 16 cells).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.apps.workloads import workload
from repro.mlsim import engine_soa
from repro.mlsim.engine_soa import compile_program, trace_index
from repro.mlsim.params import preset
from repro.mlsim.runs import _distinct
from repro.trace.events import EventKind
from repro.trace.soa import columns_from_buffer

from .reference_runs import Run
from .test_soa_equivalence import (BURSTS, split_flags_trace, tie_scripts,
                                   tie_trace)


def positions(selected, rows: int = 0) -> list[int]:
    """Row positions a selection names (``slice(None)``: every one of
    ``rows``; ``None``: none)."""
    if selected is None:
        return []
    if isinstance(selected, slice):
        assert selected == slice(None)
        return list(range(rows))
    return np.asarray(selected).tolist()


def updates_of(record: tuple) -> list[tuple]:
    """A run's flag updates in update order, ``(position, is_receive,
    flag id)``, from its record's ``flags``."""
    sends, recvs, flags = record[7], record[10], record[13]
    ranked = []
    for gid, slo, shi, rlo, rhi, ranks in flags:
        own = sorted([(p, 0) for p in positions(sends)[slo:shi]]
                     + [(p, 1) for p in positions(recvs)[rlo:rhi]])
        ranks = np.asarray(ranks).tolist()
        assert ranks == sorted(ranks) and len(ranks) == len(own)
        ranked += [(rank, p, recv, gid) for rank, (p, recv)
                   in zip(ranks, own)]
    ranked.sort()
    assert [rank for rank, *_ in ranked] == list(range(len(ranked)))
    return [tuple(update) for _, *update in ranked]


def reference_updates(ref: Run) -> list[tuple]:
    """The same, from the per-run plan."""
    every = sorted([(p, 0) for p in positions(ref.sends)]
                   + [(p, 1) for p in positions(ref.recvs)])
    return [(p, recv, gid) for (p, recv), gid
            in zip(every, ref.flag_ids.tolist())]


def assert_plans_equal(columns) -> int:
    """The index's run plan equals the per-run planner's on every run;
    returns how many runs there were."""
    index = trace_index(columns)
    plan = index.runs
    if plan is None:
        return 0
    n = columns.num_pes
    program = compile_program(columns, preset("ap1000+"))
    costs = program.run_costs
    f0, f1, f2, f3, f4, f5 = (np.asarray(slot) for slot in
                              program.operands(False))
    put = columns.kind == int(EventKind.PUT)
    self_puts = []
    for k, (a, b, pe) in enumerate(zip(plan.first, plan.stop, plan.pe)):
        ref = Run(columns, a, b, pe)
        # Keyed by the first row's position in the stepped numbering.
        key = int(index.rows.searchsorted(a))
        assert index.rows[key] == a
        record = plan.at[key]
        (kk, ra, rb, chans, gets, g0, g1, sends, s0, s1, recvs, r0, r1,
         flags, owed, owed_slot, t0, t1) = record
        rows = b - a
        assert (kk, ra, rb) == (k, a, b)
        self_puts += ref.self_puts.tolist()
        # GETs, and each channel's requests and replies.
        assert positions(gets) == positions(ref.gets)
        assert (gets is None) == (ref.gets is None)
        assert [(pe * n + q, q * n + pe) for q, _, _ in ref.chans] == [
            (ckey, rkey) for ckey, _, rkey, _ in chans]
        for (_, requests, replies), (_, mine, _, back) in zip(ref.chans,
                                                              chans):
            assert positions(mine, rows) == positions(requests, rows)
            assert (back is None) == (replies is None)
            if back is not None:
                assert positions(back, len(positions(gets))) == \
                    positions(replies, len(positions(ref.gets)))
        # Flag updates: the same updates, flags and order.
        assert updates_of(record) == reference_updates(ref)
        assert [gid for gid, *_ in flags] == [gid for gid, _ in ref.flags]
        assert (sends is None) == (ref.sends is None)
        assert (recvs is None) == (ref.recvs is None)
        # The plan's receive flags are by flag id, the reference's by row.
        assert sorted(positions(recvs)) == positions(ref.recvs)
        assert len(positions(recvs)) == r1 - r0
        assert recvs is not gets or ref.recvs is ref.gets
        # Theft owed to partners.
        if ref.theft is None:
            assert owed is None and t1 == t0
        else:
            theirs, their_rows, their_slot = ref.theft
            assert owed == theirs
            assert (plan.owed_rows[t0:t1] - a).tolist() == positions(
                their_rows, rows)
            assert (owed_slot is None) == (their_slot is None)
            if owed_slot is not None:
                assert owed_slot.tolist() == their_slot.tolist()
        # The preset's operands, sliced as the step reads them.
        wire = np.where(put, f2, f0)[a:b]
        assert costs.wire[a:b].tolist() == wire.tolist()
        if gets is not None:
            assert costs.reply_service[g0:g1].tolist() == \
                f1[a:b][gets].tolist()
            assert costs.reply_wire[g0:g1].tolist() == \
                f2[a:b][gets].tolist()
        if sends is not None:
            assert costs.send[s0:s1].tolist() == np.where(
                put, f1, 0.0)[a:b][sends].tolist()
        if recvs is not None:
            assert costs.recv[r0:r1].tolist() == np.where(
                put, f3, f4)[a:b][recvs].tolist()
        if owed is not None:
            assert costs.owed[t0:t1].tolist() == np.where(
                put, f4, f3)[plan.owed_rows[t0:t1]].tolist()
    assert plan.self_puts.tolist() == self_puts
    return len(plan.first)


@pytest.mark.parametrize("name", sorted(BURSTS))
def test_bursts(name):
    runs = assert_plans_equal(columns_from_buffer(tie_trace(*BURSTS[name])))
    assert bool(runs) == ("short" not in name)


@settings(max_examples=60, deadline=None)
@given(tie_scripts())
def test_generated_traces_with_short_runs(script):
    """With the break-even at two rows, most stretches of a PE's PUT and
    GET rows are runs, of one row to hundreds."""
    with mock.patch.object(engine_soa, "_RUN_MIN", 2):
        assert_plans_equal(columns_from_buffer(tie_trace(*script)))


def test_receive_flags_split_across_runs():
    """Receive-flag and GET positions that agree only when the runs are
    put together."""
    with mock.patch.object(engine_soa, "_RUN_MIN", 2):
        assert assert_plans_equal(columns_from_buffer(
            split_flags_trace())) == 2


def test_tomcatv_without_stride_at_bench_size():
    run = workload("TC no st").runner(num_cells=16, n=65, iters=1,
                                      use_stride=False)
    assert assert_plans_equal(columns_from_buffer(run.trace)) == 30


@pytest.mark.parametrize("span", [3, 40, 5000])
def test_distinct_values_per_run(span):
    """Each run's distinct values and each entry's place among them, over
    a span narrower than the runs' entries and a far wider one."""
    rng = np.random.default_rng(span)
    run = np.sort(rng.integers(0, 7, 200))
    values = rng.integers(0, span, 200)
    distinct, bounds, slot = _distinct(run, values, 8)
    for k in range(8):
        mine = sorted(set(values[run == k].tolist()))
        assert distinct[bounds[k]:bounds[k + 1]] == mine
        assert [mine[p] for p in slot[run == k].tolist()] == \
            values[run == k].tolist()
