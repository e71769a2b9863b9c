"""Perf-lane gating logic (no timing: documents in, verdicts out)."""

from __future__ import annotations

from repro.bench.perf import (
    BASELINE_TOLERANCE_PCT,
    baseline_from_report,
    compare_to_baseline,
)


def report_doc(functional=5.0, sharded=3.5):
    return {
        "created_utc": "2026-01-01T00:00:00+00:00",
        "host": {"platform": "test", "python": "3.12", "cpu_count": 4},
        "micro": {
            "cold": {"wall_s": 2.0},
            "warm": {"wall_s": 0.2},
        },
        "functional": {"speedup": functional},
        "sharded": {"speedup": sharded, "critical_path_s": 0.3},
    }


class TestBaselineGate:
    def test_within_tolerance_passes(self):
        base = baseline_from_report(report_doc(functional=12.0))
        # 25% below 12.0 is 9.0; 10.0 is inside the band.
        failures = compare_to_baseline(report_doc(functional=10.0), base)
        assert failures == []

    def test_regression_beyond_tolerance_fails(self):
        base = baseline_from_report(report_doc(functional=16.0))
        failures = compare_to_baseline(report_doc(functional=11.0), base)
        assert any("functional scheduler" in f for f in failures)

    def test_functional_regression_detected(self):
        base = baseline_from_report(report_doc(functional=8.0))
        failures = compare_to_baseline(report_doc(functional=3.1), base)
        assert any("functional" in f for f in failures)

    def test_sharded_regression_detected(self):
        base = baseline_from_report(report_doc(sharded=8.0))
        failures = compare_to_baseline(report_doc(sharded=2.1), base)
        assert any("sharded" in f for f in failures)

    def test_baseline_without_sharded_ratio_tolerated(self):
        # Baselines recorded before the sharded engine existed.
        base = baseline_from_report(report_doc())
        del base["speedups"]["sharded"]
        assert compare_to_baseline(report_doc(), base) == []

    def test_absolute_walls_never_gated(self):
        base = baseline_from_report(report_doc())
        current = report_doc()
        current["micro"]["warm"]["wall_s"] = 1e9  # slower host is fine
        assert compare_to_baseline(current, base) == []


class TestBaselineShape:
    def test_round_trip_keeps_ratios_only(self):
        base = baseline_from_report(report_doc(functional=5.5,
                                               sharded=2.5))
        assert base["speedups"] == {"functional": 5.5, "sharded": 2.5}
        assert "walls_informational" in base
        assert BASELINE_TOLERANCE_PCT == 25.0
