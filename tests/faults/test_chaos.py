"""Chaos harness: digests, seeded determinism, and the sweep itself."""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main

from repro.faults.chaos import (
    chaos_sweep,
    memory_digest,
    results_digest,
    run_under_plan,
    trace_digest,
)
from repro.faults.plan import FaultPlan


STORM = FaultPlan(name="storm", seed=2718, drop_rate=0.05, dup_rate=0.05,
                  corrupt_rate=0.05, delay_rate=0.1)


class TestDigests:
    def test_results_digest_is_stable_and_order_sensitive(self):
        a = [np.arange(4, dtype=np.float64), 3, "x"]
        b = [np.arange(4, dtype=np.float64), 3, "x"]
        assert results_digest(a) == results_digest(b)
        assert results_digest(a) != results_digest(list(reversed(a)))

    def test_results_digest_sees_dtype_and_shape(self):
        flat = np.zeros(4, dtype=np.float64)
        assert results_digest(flat) != results_digest(
            flat.astype(np.float32))
        assert results_digest(flat) != results_digest(
            flat.reshape(2, 2))

    def test_trace_digest_ignores_global_packet_serials(self):
        # Two identical runs in one process draw different raw packet
        # serial numbers from the process-wide counter; the digest must
        # renumber them away.
        t1 = run_under_plan("MatMul", None, cells=4).trace
        t2 = run_under_plan("MatMul", None, cells=4).trace
        assert trace_digest(t1) == trace_digest(t2)


class TestDeterminism:
    def test_same_seed_same_schedule_memory_and_trace(self):
        # The issue's replay guarantee: one seed drives every fault
        # decision, so a failure replays byte-for-byte.
        r1 = run_under_plan("MatMul", STORM, cells=4)
        r2 = run_under_plan("MatMul", STORM, cells=4)
        assert r1.machine.tnet.schedule == r2.machine.tnet.schedule
        assert r1.machine.tnet.schedule  # the storm actually fired
        assert memory_digest(r1.machine) == memory_digest(r2.machine)
        assert trace_digest(r1.trace) == trace_digest(r2.trace)

    def test_different_seed_different_schedule(self):
        other = FaultPlan(name="storm", seed=2719, drop_rate=0.05,
                          dup_rate=0.05, corrupt_rate=0.05,
                          delay_rate=0.1)
        r1 = run_under_plan("MatMul", STORM, cells=4)
        r2 = run_under_plan("MatMul", other, cells=4)
        assert r1.machine.tnet.schedule != r2.machine.tnet.schedule


class TestSweep:
    def test_sweep_matches_golden_and_collects_counters(self):
        report = chaos_sweep(("MatMul",), (STORM,), cells=4, check=False)
        assert report.ok
        (case,) = report.cases
        assert case.results_match and case.memory_match and case.verified
        assert case.check_clean is None  # check=False skips the checker
        assert case.counters["frames_sent"] > 0
        assert sum(case.counters[k] for k in
                   ("dropped", "duplicated", "corrupted", "delayed")) > 0
        d = report.to_dict()
        assert d["ok"] and len(d["cases"]) == 1

    def test_sweep_with_checker_is_clean(self):
        report = chaos_sweep(("MatMul",), (STORM,), cells=4, check=True)
        assert report.ok
        assert report.cases[0].check_clean is True

    def test_empty_report_is_not_ok(self):
        from repro.faults.chaos import ChaosReport
        assert not ChaosReport().ok


#: ``repro chaos [--recover] --smoke --json``, written by the commit
#: before fault plans stopped counting scheduler resumes; CI ``cmp``s
#: the same files.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(("flags", "golden"), [
    ([], "chaos_smoke.json"), (["--recover"], "recover_smoke.json")])
def test_smoke_reports_match_the_goldens(flags, golden, capsys):
    assert main(["chaos", *flags, "--smoke", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
