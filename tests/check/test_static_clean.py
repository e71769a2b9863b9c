"""Acceptance gate: every shipped workload is static-clean at
P in {4, 16, 64} — the analyzer predicts no divergence, unmatched
flags, footprint overlaps, or illegal strides at any of those scales —
and the analyzer's P = 4 run is the app's own sanitized run: the same
trace digest and the same per-cell results."""

import numpy as np
import pytest

from repro.bench.grid import BenchSpec
from repro.check.comm import STATIC_APPS, analyze_app, static_params
from repro.faults.chaos import trace_digest
from repro.machine.config import MachineConfig


@pytest.mark.parametrize("name", STATIC_APPS)
def test_workload_is_static_clean(name):
    report, _graph, runs = analyze_app(name, scales=(4, 16, 64),
                                       build_graph=False)
    assert report.clean, report.render()
    assert report.stats["static_deadlocks"] == 0
    assert all(not run.deadlocked for run in runs.values())

    _, params = static_params(name)
    recorded = BenchSpec(name, 4, dict(params)).run(
        MachineConfig(sanitize=True))
    assert trace_digest(runs[4].trace) == trace_digest(recorded.trace)
    np.testing.assert_equal(runs[4].results,
                            dict(enumerate(recorded.results)))
