"""Host cost of the consume side must stay where the bytes put it.

Counts, not seconds (as in ``tests/machine/test_message_cost.py``):
what one ``replay_columns`` and one ``load_trace`` of a v2 file call,
under cProfile.  The counts repeat exactly, so the ceilings sit just
above what the code does today; a ``min``/``max`` back in the
interpreter loop, or a loader that re-records events one by one, shows
up here as a failure rather than as a slower benchmark.
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
from repro.trace.buffer import TraceBuffer
from repro.trace.io import load_trace, load_trace_columns, save_trace
from repro.trace.soa import columns_from_buffer

#: case -> (workload, sizes, ceiling of calls per event inside one
#: replay, the same with ``record_timeline``).  CG is collectives and
#: local rows only: on 8 cells one chain of 52 supersteps, replayed as
#: one superstep step (0.39 calls per event; it was 2.01 row by row,
#: deque and set traffic per context switch, when the ceiling was 3.0).
#: On 4 cells its supersteps are below the step's break-even, so that
#: trace keeps counting the loop's context switches (2.05).  TOMCATV
#: without stride is 8-byte PUTs with their acknowledging GETs in six
#: runs of 99 rows, each replayed as one run step (about 45 numpy and
#: container calls; it was 4.24 calls per event row by row, one
#: ``record_flag`` per flag update and a dict probe per channel).
#: Recording declines both steps and adds one call and four column
#: appends per span (1.25 and 1.03 spans per event) and one and three
#: per packet flow (none and 1.54): nothing is built per row.
#: ``scripts/consume_cost.py --max-replay-calls`` holds its CG trace (16
#: cells, one chain of 318 supersteps: 0.14 today) and its TC no st
#: trace (16 cells, runs of 195 rows: 0.34) to these ceilings in CI.
CG_CEILING = 0.45
TC_NO_ST_CEILING = 0.8
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
    program.index.link_plan()     # per trace, shared by every preset
    stats = profiled(replay_columns, columns, params,
                     collect_metrics=True, program=program)
    events = columns.total_events
    # min/max called from the interpreter: a handful after the loop
    # (elapsed, DMA and link maxima), none per event.
    from_engine = sum(
        callers[caller][0]
        for (_, _, name), (*_, callers) in stats.stats.items()
        if name in ("<built-in method builtins.min>",
                    "<built-in method builtins.max>")
        for caller in callers if caller[0] == engine_soa.__file__)
    assert from_engine <= 4, from_engine
    # Everything the replay calls, C methods included (today: CG 0.39,
    # on 4 cells 2.05, TOMCATV 0.69 per event; the loop's own work is
    # not a call).
    per_event = stats.total_calls / events
    assert per_event < ceiling, per_event
    # The same replay keeping its timeline (today: 8.24 and 15.59; a
    # ``Span`` per span would be six calls more per span), and what it
    # kept: event indices and times, no label built in the loop.
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


def test_v2_load_records_nothing(recorded):
    path, _ = recorded
    stats = profiled(load_trace, path)
    for method in (TraceBuffer.record, TraceBuffer.append,
                   TraceBuffer.append_rows):
        code = method.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        assert key not in stats.stats
