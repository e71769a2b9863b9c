"""Host cost of the dynamic checker must stay where the sync rows put it.

Counts, not seconds (as in ``tests/mlsim/test_replay_cost.py``): the
calls one ``check_trace`` makes under cProfile, per trace event, on
sanitized traces at the bench grid's sizes.  The counts repeat exactly,
so the ceilings sit just above what the code does today; a
happens-before that walks every event in the interpreter again, or a
race pass that builds an object per event, fails here rather than as a
slower ``repro check``.
"""

import cProfile
import pstats

import pytest

from repro.bench.grid import workload_specs
from repro.check.runner import check_trace
from repro.machine.config import MachineConfig

#: Ceiling of calls per event.  CG (8 592 events) is half sync rows,
#: barriers and reductions of 16 cells: one clock join a rendezvous, 2.46
#: today.  TOMCATV without stride (60 436 events, 956 of them sync rows)
#: is 8-byte PUTs and their acknowledges: the race pass's per-access
#: objects, 24.91 today.  The sweep replay this pass replaced made 14.44
#: and 49.06 (a visit, a clock tuple and a view per event).
CEILINGS = {"CG": 2.7, "TC no st": 26.0}


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
