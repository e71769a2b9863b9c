"""Host cost per trace event must not grow with the machine's width.

Counts, not seconds: profiled call counts repeat exactly, so the guard
needs no allowance for host noise.
"""

import cProfile
import os
import pstats

import repro
from repro.apps.latency import run_ring_shift

HOPS = 512
LAYERS = tuple(os.path.join(os.path.dirname(repro.__file__), layer) + os.sep
               for layer in ("machine", "network", "hardware"))


def layer_calls_per_event(num_cells):
    """Calls into repro.machine/.network/.hardware per trace event of one
    RingShift run.  ``CellContext.checkpoint`` is left out: the app calls
    it hops x cells times, which is the app's own loop, not the
    machine's cost of an operation."""
    profile = cProfile.Profile()
    run = profile.runcall(run_ring_shift, num_cells, hops=HOPS)
    assert run.verified
    calls = sum(
        ncalls
        for (filename, _, name), (_, ncalls, *_)
        in pstats.Stats(profile).stats.items()
        if filename.startswith(LAYERS) and name != "checkpoint")
    return calls / len(run.trace.all_events())


def test_calls_per_event_flat_from_64_to_256_cells():
    narrow = layer_calls_per_event(64)
    wide = layer_calls_per_event(256)
    assert wide < 1.25 * narrow, (narrow, wide)
