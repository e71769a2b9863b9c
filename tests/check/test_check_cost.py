"""Host cost of the dynamic checker must stay where the sync rows put it.

Counts, not seconds (as in ``tests/mlsim/test_replay_cost.py``): the
calls one ``check_trace`` makes under cProfile, per trace event, on
sanitized traces at the bench grid's sizes.  The counts repeat exactly,
so the ceilings sit just above what the code does today; a
happens-before that walks every event in the interpreter again, or a
race pass that builds an object per access or loops over a footprint's
chunks, fails here rather than as a slower ``repro check``.
"""

import cProfile
import pstats

import pytest

from repro.bench.grid import workload_specs
from repro.check.runner import check_trace
from repro.machine.config import MachineConfig

#: Ceiling of calls per event.  CG (8 592 events) is half sync rows,
#: barriers and reductions of 16 cells: one clock join a rendezvous, 2.53
#: today.  TOMCATV without stride (60 436 events, 956 of them sync rows)
#: is 8-byte PUTs and their acknowledges, 78 000 accesses and 351 000
#: span-overlapping pairs, all array operations: 0.20 today.  TOMCATV
#: with stride (2 836 events) pairs 65-chunk columns, whose chunk test
#: is one array pass: 4.33 today, mostly the happens-before's 341 clock
#: joins.  The sweep replay that happens-before replaced made 14.44 and
#: 49.06 (a visit, a clock tuple and a view per event); the object race
#: pass this one replaced made 24.91 on TOMCATV without stride (an
#: ``Access`` and a ``Footprint`` per access) and 126.2 with stride.
CEILINGS = {"CG": 2.7, "TC no st": 0.23, "TC st": 4.6}


@pytest.fixture(scope="module", params=sorted(CEILINGS))
def sanitized(request):
    [spec] = workload_specs(names=(request.param,))
    trace = spec.run(MachineConfig(sanitize=True)).trace
    trace.block()           # packed once, as a loaded trace already is
    return request.param, trace


def test_check_calls_per_event(sanitized):
    name, trace = sanitized
    profile = cProfile.Profile()
    report = profile.runcall(check_trace, trace, name)
    assert report.clean, report.render()
    per_event = pstats.Stats(profile).total_calls / trace.total_events
    assert per_event < CEILINGS[name], per_event
