"""Host work follows trace events: not the machine's width, and not an
application loop that records nothing.

Counts, not seconds: profiled call counts repeat exactly, so the guards
need no allowance for host noise.
"""

import cProfile
import gc
import os
import pstats

import pytest

import repro
from repro.apps.latency import run_ring_shift
from repro.apps.workloads import WORKLOADS
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from tests.trace.views import all_events

HOPS = 512
REPRO = os.path.dirname(repro.__file__) + os.sep
APPS = REPRO + "apps" + os.sep
LAYERS = (APPS, *(REPRO + layer + os.sep
                  for layer in ("machine", "network", "hardware", "obs")))


def profiled(runner, *args, **params):
    """One verified run under cProfile: its trace event count and a
    ``count(selects)`` summing the calls of the functions for which
    ``selects(filename, function name)`` holds."""
    profile = cProfile.Profile()
    run = profile.runcall(runner, *args, **params)
    assert run.verified
    stats = pstats.Stats(profile).stats

    def count(selects):
        return sum(ncalls for (filename, _, name), (_, ncalls, *_)
                   in stats.items() if selects(filename, name))

    return len(all_events(run.trace)), count


def layer_calls_per_event(num_cells, **config):
    """Calls into repro.apps/.machine/.network/.hardware/.obs per trace
    event of one RingShift run, the app's own loop included."""
    events, count = profiled(
        run_ring_shift, num_cells, hops=HOPS,
        config=MachineConfig(num_cells=num_cells, **config))
    return count(lambda filename, _: filename.startswith(LAYERS)) / events


def test_calls_per_event_flat_from_64_to_256_cells():
    narrow = layer_calls_per_event(64)
    wide = layer_calls_per_event(256)
    assert wide < 1.25 * narrow, (narrow, wide)


def test_calls_per_event_flat_from_64_to_1024_cells():
    narrow = layer_calls_per_event(64)
    wide = layer_calls_per_event(1024)
    assert wide < 1.25 * narrow, (narrow, wide)


def test_observed_calls_per_event_flat_from_64_to_1024_cells():
    # An occupancy sample reads the cells pushed to since the last one:
    # 44.1 calls per event at 64 cells, 37.2 at 1 024 (25.6 and 28.7
    # unobserved).  While every sample read every queue of every cell:
    # 541.5 and 3 110.
    narrow = layer_calls_per_event(64, observe=True, sanitize=True)
    wide = layer_calls_per_event(1024, observe=True, sanitize=True)
    assert wide < 1.25 * narrow, (narrow, wide)


def test_ring_shift_calls_into_repro_per_event():
    # sync_chain's size.  Recording alone: 40.7 calls into repro per
    # event; 142.8 while every cell iterated over every hop.
    events, count = profiled(run_ring_shift, 256, hops=1024)
    assert events == 2 * 256 + 2 * 1024 - 1
    assert count(lambda filename, _: filename.startswith(REPRO)) \
        <= 50 * events


def test_gc_tracked_objects_per_cell_of_a_built_machine():
    # 22.7: one per part, the memoryview (and its managed buffer) of
    # the DRAM that ``CellMemory`` holds, and the communication
    # registers' two lists.  41.6 while every queue and
    # the ring owned deques before their first use, the MMU copies of
    # the boot tables, and the T-net port, spill hook and SEND sink of
    # a cell were objects of their own (a partial, a partial, a bound
    # method); 50.4 while every queue had a spill hook of its own.  What the cycle
    # collector walks is what a wide machine's boot collects for.
    Machine(4)                                  # first-use set-up
    gc.collect()
    before = len(gc.get_objects())
    machine = Machine(64)
    tracked = len(gc.get_objects()) - before
    assert machine.config.num_cells == 64
    assert tracked <= 25 * 64, tracked / 64


def test_profiled_calls_per_cell_of_a_machine_build():
    # 25.5, 14 of them dataclass ``__init__``s: no table is derived or
    # copied, no buffer mapped and no hook made per cell (28.5 while
    # each cell filled its MMU from the template and had two partials).
    # Counted per code object: ``pstats`` keys every generated
    # ``__init__`` as ``<string>:2`` and keeps one of them, so its total
    # (15.4 when this ceiling was first set on it) moved with whichever
    # ``__init__`` the profiler happened to list last.
    Machine(4)
    profile = cProfile.Profile()
    profile.runcall(Machine, 256)
    calls = sum(entry.callcount for entry in profile.getstats())
    assert calls <= 26.5 * 256, calls / 256


#: Every registered app at its default size, TOMCATV cut to one
#: iteration (the unstrided one records 6 000 events per iteration).
SMOKE = {name: {} for name in WORKLOADS} | {
    "TC st": {"iters": 1}, "TC no st": {"iters": 1}}


@pytest.mark.parametrize("app", sorted(SMOKE))
def test_app_loop_follows_its_trace_events(app):
    """An app's own frames (and its checkpoint sites) stay under two per
    trace event, plus sixteen per cell for start-up (allocation, the
    enclosing barriers, the result).  A loop of cells x iterations that
    records nothing breaks this at any size where both are large:
    RingShift's old one read 29.5 per event at 64 cells x 512 hops."""
    workload = WORKLOADS[app]
    events, count = profiled(workload.run, **SMOKE[app])
    own = count(lambda filename, name: filename.startswith(APPS) or (
        name == "checkpoint" and filename.startswith(REPRO)))
    assert own <= 2 * events + 16 * workload.default_pes, (own, events)
