"""Host cost of one small message must stay a small constant.

Counts, not seconds (as in ``test_width_scaling``): calls into
``repro.machine`` / ``.network`` / ``.hardware`` per command a program
issues, under cProfile.  The counts repeat exactly, so the ceilings sit
just above what the implementation does today; per-message object
churn (a descriptor rebuilt, a range checked twice, an empty queue
polled) shows up here as a failure rather than as a slower benchmark.
"""

import cProfile
import os
import pstats

import repro
from repro.apps import tomcatv
from repro.apps.latency import run_ping_pong

LAYERS = tuple(os.path.join(os.path.dirname(repro.__file__), layer) + os.sep
               for layer in ("machine", "network", "hardware"))


def layer_calls_per_command(runner, *args, **kwargs):
    profile = cProfile.Profile()
    run = profile.runcall(runner, *args, **kwargs)
    assert run.verified
    calls = sum(
        ncalls
        for (filename, _, _), (_, ncalls, *_)
        in pstats.Stats(profile).stats.items()
        if filename.startswith(LAYERS))
    commands = sum(cell.msc.user_send_queue.pushed
                   for cell in run.machine.hw_cells)
    return calls / commands


def test_tomcatv_without_stride():
    # 8-byte PUTs, each with its acknowledging GET, and GETs: 49.1 today
    # (86.5 before descriptors were interned and checks deduplicated).
    cost = layer_calls_per_command(
        tomcatv.run, 4, n=33, iters=1, use_stride=False)
    assert cost < 52, cost


def test_ping_pong():
    # One PUT and one blocking flag wait per command, so the scheduler's
    # share is in here too: 71.0 today (118.0 before).
    cost = layer_calls_per_command(run_ping_pong, 4, iters=256)
    assert cost < 75, cost
