"""Acceptance gate: every shipped workload checks clean at default
sizes — no races, no synchronization diagnostics, no lint findings."""

import pytest

from repro.apps.workloads import ORDER, workload
from repro.check.runner import check_trace, trace_is_annotated
from repro.machine.config import MachineConfig


@pytest.mark.parametrize("name", ORDER)
def test_workload_checks_clean(name):
    run = workload(name).run(config=MachineConfig(sanitize=True))
    assert run.verified
    assert trace_is_annotated(run.trace)
    report = check_trace(run.trace, name)
    assert report.clean, report.render()
    assert report.stats["events"] == run.trace.total_events
