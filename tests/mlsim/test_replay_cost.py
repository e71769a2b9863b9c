"""Host cost of the consume side must stay where the bytes put it.

Counts, not seconds (as in ``tests/machine/test_message_cost.py``):
what one ``replay_columns``, the plan of one replay and one
``load_trace`` of a v2 file call, under cProfile.  The counts repeat
exactly, so the ceilings sit just above what the code does today; a
``min``/``max`` back in the interpreter loop, a plan that works per
row, or a loader that re-records events one by one, shows up here as a
failure rather than as a slower benchmark.
"""

import cProfile
import pstats

import pytest

from repro.apps.workloads import workload
from repro.mlsim import engine_soa
from repro.mlsim.engine_soa import (
    compile_program,
    replay_columns,
    trace_index,
)
from repro.mlsim.params import preset
from repro.obs import registry
from repro.trace.buffer import TraceBuffer
from repro.trace.io import load_trace, load_trace_columns, save_trace
from repro.trace.soa import columns_from_buffer

#: case -> (workload, sizes, ceiling of calls per event inside one
#: replay, the same with ``record_timeline``).  CG is collectives and
#: local rows only: on 8 cells one chain of 52 supersteps, replayed as
#: one superstep step (0.36 calls per event: 49 of its supersteps are
#: stepped on floats; it was 0.39 with every superstep an array step,
#: and 2.01 row by row, deque and set traffic per context switch, when
#: the ceiling was 3.0).
#: On 4 cells its supersteps are below the step's break-even, so that
#: trace keeps counting the loop's context switches and one append per
#: barrier wait (2.21; 2.05 while the loop counted the waits' buckets
#: inline).  TOMCATV without stride is 8-byte PUTs with their
#: acknowledging GETs in six runs of 99 rows, each replayed as one run
#: step (about 35 numpy and container calls, 0.62 per event with the
#: fixed calls of the two wait histograms' ``Histogram.of``; 0.56 before
#: those, 0.66 while the step also summed DMA and link busy time, 0.70
#: while it sliced its operands per run, and 4.24 row by row, one
#: ``record_flag`` per flag update and a dict probe per channel).  The
#: DMA and link busy sums are made before the pass (``_Program.busy``),
#: counted with the plan below.
#: Recording declines both steps and adds one call and four column
#: appends per span (1.25 and 1.03 spans per event) and one and three
#: per packet flow (none and 1.54): nothing is built per row.
#: ``scripts/consume_cost.py --max-replay-calls`` holds its CG trace (16
#: cells, one chain of 318 supersteps: 0.11 today) and its TC no st
#: trace (16 cells, runs of 195 rows: 0.27) to these ceilings in CI.
CG_CEILING = 0.37
TC_NO_ST_CEILING = 0.7
CASES = {
    "CG": ("CG", dict(num_cells=8, n=120, outer=2, inner=5), CG_CEILING,
           9.5),
    "CG below the break-even": (
        "CG", dict(num_cells=4, n=120, outer=2, inner=5), 2.5, 9.5),
    "TC no st": ("TC no st",
                 dict(num_cells=4, n=33, iters=1, use_stride=False),
                 TC_NO_ST_CEILING, 16.5),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def recorded(request, tmp_path_factory):
    app, sizes, *ceilings = CASES[request.param]
    run = workload(app).runner(**sizes)
    path = tmp_path_factory.mktemp("cost") / "trace.jsonl"
    save_trace(run.trace, path)
    return path, ceilings


def profiled(func, *args, **kwargs):
    profile = cProfile.Profile()
    profile.runcall(func, *args, **kwargs)
    return pstats.Stats(profile)


def test_replay_calls_per_event(recorded):
    path, (ceiling, recording_ceiling) = recorded
    columns = load_trace_columns(path)
    params = preset("ap1000+")
    program = compile_program(columns, params)
    program.busy()      # the metrics' sums, made before the pass
    stats = profiled(replay_columns, columns, params,
                     collect_metrics=True, program=program)
    events = columns.total_events
    # min/max called from the interpreter or the wait histograms: a
    # handful after the loop (elapsed, DMA and link maxima), none per
    # event.
    from_engine = sum(
        callers[caller][0]
        for (_, _, name), (*_, callers) in stats.stats.items()
        if name in ("<built-in method builtins.min>",
                    "<built-in method builtins.max>")
        for caller in callers
        if caller[0] in (engine_soa.__file__, registry.__file__))
    assert from_engine <= 4, from_engine
    # The wait histograms are built once each, after the pass.
    built = sum(calls for (path, _, name), (calls, *_) in stats.stats.items()
                if path == registry.__file__ and name == "of")
    assert built <= 2, built
    # Everything the replay calls, C methods included (today: CG 0.36,
    # on 4 cells 2.21, TOMCATV 0.62 per event; the loop's own work is
    # not a call).
    per_event = stats.total_calls / events
    assert per_event < ceiling, per_event
    # The same replay keeping its timeline (today: CG 8.57, on 4 cells
    # 8.43, TOMCATV 15.94; a ``Span`` per span would be six calls more
    # per span), and what it kept: event indices and times, no label
    # built in the loop.
    profile = cProfile.Profile()
    result = profile.runcall(
        replay_columns, columns, params, record_timeline=True,
        collect_metrics=True, program=program)
    per_event = pstats.Stats(profile).total_calls / events
    assert per_event < recording_ceiling, per_event
    timeline = result.timeline
    kept = {type(value) for log in (timeline.span_log, timeline.flow_log,
                                    timeline.mark_log)
            for column in log for value in column}
    assert kept == {int, float}, kept


def test_cg_cases_sit_either_side_of_the_break_even():
    chains = {}
    for name in ("CG", "CG below the break-even"):
        app, sizes, *_ = CASES[name]
        columns = columns_from_buffer(workload(app).runner(**sizes).trace)
        plan = trace_index(columns).supersteps
        chains[name] = [] if plan is None else [c.m for c in plan.chains]
    assert chains == {"CG": [52], "CG below the break-even": []}


#: case -> ceiling of profiled calls per event of planning a replay
#: with metrics (the bench's replays collect them) of fresh columns:
#: ``trace_index``, one ``compile_program`` and its ``busy`` (the
#: index's ``link_charges``, then one ``np.bincount`` for the DMA and
#: one for the links): array operations per kind and per chain, and
#: one pass over the rows of all runs, nothing per row or per run.
#: Today CG 0.69, TOMCATV without stride 1.47 on 4 cells (6 runs of 99
#: rows) and 0.16 on 16 (30 runs of 195 rows: the runs' plan is the
#: same calls as for six); 0.71, 1.73 and 0.18 while the index's
#: ``link_plan`` also planned the runs' link charges for the run step,
#: and 0.73, 3.10 and 1.25 while each run was planned on its own
#: (``runs.Run`` in the index and its ``plan_links`` in the link plan).
#: RingShift on 256 cells (1 024 hops: 2 559 rows, 1 024 of them PUTs)
#: 0.22, the busy sums included (0.20 without them): every route is
#: resolved in one array pass (2.13 while each distinct pair took a
#: ``TorusTopology.route`` and a dict probe per hop).
#: ``scripts/consume_cost.py --max-plan-calls`` holds the 16-cell
#: TOMCATV trace and the RingShift one, its own, to their ceilings in
#: CI.
TC_NO_ST_PLAN_CEILING = 0.3
RINGSHIFT_PLAN_CEILING = 0.25
PLAN_CEILINGS = {"CG": 0.74, "TC no st": 1.6,
                 "TC no st, 16 cells": TC_NO_ST_PLAN_CEILING,
                 "RingShift": RINGSHIFT_PLAN_CEILING}
PLAN_CASES = {**CASES, "TC no st, 16 cells": (
    "TC no st", dict(num_cells=16, n=65, iters=1, use_stride=False)),
    "RingShift": ("RingShift", dict(num_cells=256, hops=1024))}


def saved(case, tmp_path):
    """The case's trace file."""
    app, sizes, *_ = PLAN_CASES[case]
    path = tmp_path / "trace.jsonl"
    save_trace(workload(app).runner(**sizes).trace, path)
    return path


@pytest.mark.parametrize("case", sorted(PLAN_CEILINGS))
def test_plan_calls_per_event(case, tmp_path):
    path = saved(case, tmp_path)

    def plan(columns):
        compile_program(columns, preset("ap1000+")).busy()

    plan(load_trace_columns(path))      # imports on first use: not counted
    columns = load_trace_columns(path)
    per_event = profiled(plan, columns).total_calls / columns.total_events
    assert per_event < PLAN_CEILINGS[case], per_event


def test_no_link_plan_without_messages(tmp_path):
    """CG records collectives and local rows only: the DMA and link busy
    times of its metrics and its link plan are the empty ones, each made
    without a pass over the rows (it was a ``None`` per row, 11 calls
    and an object array over all of them)."""
    program = compile_program(load_trace_columns(saved("CG", tmp_path)),
                              preset("ap1000+"))
    index = program.index
    for made in (program.busy, index.link_plan):
        stats = profiled(made)
        assert stats.total_calls <= 8, (made, stats.total_calls)
    assert program.busy() == ([0.0] * 8, [])
    assert index.link_plan() == [] and index.link_table == []


class Reads(list):
    """An operand slot that remembers the positions read from it."""

    def __init__(self, slot):
        super().__init__(slot)
        self.read = set()

    def __getitem__(self, at):
        self.read.add(at)
        return super().__getitem__(at)


def test_a_stepped_index_holds_the_rows_it_reads(tmp_path, monkeypatch):
    """A stepped replay of CG (one chain of 52 supersteps on 8 PEs)
    visits 16 of its 872 rows: the index numbers those 16, its operand
    lists hold their values and no others, the replay reads every
    position, and each program's lists are as long."""
    columns = load_trace_columns(saved("CG", tmp_path))
    slots = []
    operands = engine_soa._TraceIndex.operands

    def spied(self, stepped):
        got = operands(self, stepped)
        assert all(isinstance(slot, list) for slot in got)
        slots[:] = map(Reads, got)
        return tuple(slots)

    monkeypatch.setattr(engine_soa._TraceIndex, "operands", spied)
    program = compile_program(columns, preset("ap1000+"))
    replay_columns(columns, preset("ap1000+"), collect_metrics=True,
                   program=program)
    index = program.index
    rows = index.rows.tolist()
    assert (len(rows), columns.total_events) == (16, 872)
    ops, *others = slots
    assert ops.read == set(range(len(rows)))
    for stepped, full in ((slots, operands(index, False)),
                          (program.operands(True), program.operands(False))):
        assert [list(slot) for slot in stepped] == [
            [slot[row] for row in rows] for slot in full]


def test_v2_load_records_nothing(recorded):
    path, _ = recorded
    stats = profiled(load_trace, path)
    for method in (TraceBuffer.record, TraceBuffer.append,
                   TraceBuffer.append_rows):
        code = method.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        assert key not in stats.stats
