"""Runner: grids, serial/parallel equivalence, cache integration."""

from __future__ import annotations

import pytest

from repro.apps.workloads import ORDER
from repro.bench.grid import (
    ALL_PRESETS,
    BENCH_CONFIGS,
    BenchSpec,
    bench_specs,
    grid_specs,
    micro_specs,
    smoke_specs,
    workload_specs,
)
from repro.bench.runner import run_bench
from repro.bench.schema import results_bytes
from repro.core.errors import ConfigurationError

from .conftest import TINY_PRESETS, TINY_SPECS


class TestGrids:
    def test_bench_grid_covers_every_row(self):
        assert [s.app for s in bench_specs()] == list(ORDER)
        for spec in bench_specs():
            assert spec.config() == BENCH_CONFIGS[spec.app]

    def test_bench_grid_subset_keeps_paper_order(self):
        specs = grid_specs("bench", ("MatMul", "EP"))
        assert [s.app for s in specs] == ["EP", "MatMul"]

    def test_bench_grid_rejects_unknown_app(self):
        with pytest.raises(ConfigurationError):
            grid_specs("bench", ("LU",))

    def test_smoke_grid_is_two_small_apps(self):
        specs = smoke_specs()
        assert [s.app for s in specs] == ["EP", "MatMul"]
        assert all(s.num_cells <= 16 for s in specs)

    def test_wide_grid_keys_rows_by_name(self):
        specs = grid_specs("wide")
        assert [s.name for s in specs] == [
            f"{app}@{cells}" for cells in (256, 1024, 4096)
            for app in ("EP", "RingShift")]
        assert [s.name for s in grid_specs("wide", ("EP",))] == [
            "EP@256", "EP@1024", "EP@4096"]
        # Names key the rows; two identical specs are still refused.
        with pytest.raises(ConfigurationError, match="duplicate row"):
            run_bench([specs[0], specs[0]], use_cache=False)

    def test_workload_specs_match_registry_defaults(self):
        by_app = {s.app: s for s in workload_specs()}
        assert by_app["CG"].params["n"] > 0
        assert by_app["EP"].num_cells > 0


class TestRunner:
    def test_outcome_shape(self, tiny_outcome):
        assert set(tiny_outcome.runs) == {"EP", "MatMul"}
        assert set(tiny_outcome.replays["EP"]) == set(TINY_PRESETS)
        assert tiny_outcome.all_verified

    def test_runs_duck_type_app_runs(self, tiny_outcome):
        run = tiny_outcome.runs["MatMul"]
        assert run.verified
        assert run.statistics.num_pes == 4
        assert run.trace.total_events > 0

    def test_comparisons_need_all_three_presets(self, tiny_outcome):
        # The tiny grid replays only two presets.
        assert tiny_outcome.comparisons == {}

    def test_full_preset_set_builds_comparisons(self, tmp_path):
        outcome = run_bench(
            TINY_SPECS[:1],
            ALL_PRESETS,
            cache_dir=tmp_path,
            grid_name="tiny",
        )
        (comparison,) = outcome.comparisons.values()
        plus, fast = comparison.table2_row()
        assert plus >= fast > 1.0

    def test_rejects_bad_jobs_and_duplicates(self):
        with pytest.raises(ConfigurationError):
            run_bench(TINY_SPECS, TINY_PRESETS, jobs=0)
        with pytest.raises(ConfigurationError):
            run_bench(TINY_SPECS + TINY_SPECS, TINY_PRESETS)


class TestSerialParallelEquivalence:
    def test_parallel_results_byte_identical(
        self, tiny_outcome, tmp_path
    ):
        parallel = run_bench(
            TINY_SPECS,
            TINY_PRESETS,
            jobs=2,
            cache_dir=tmp_path,
            use_cache=False,
            grid_name="tiny",
        )
        assert results_bytes(parallel.artifact) == results_bytes(
            tiny_outcome.artifact
        )
        assert parallel.artifact.run["jobs"] == 2

    def test_cached_rerun_byte_identical_and_hits(
        self, tiny_outcome, tmp_path
    ):
        # Cold and warm (cache-hit) runs of the tiny grid and of the
        # micro grid's long latency chains and CG.
        for grid, specs, presets in (
                ("tiny", TINY_SPECS, TINY_PRESETS),
                ("micro", micro_specs(), ALL_PRESETS)):
            first = run_bench(
                specs,
                presets,
                cache_dir=tmp_path,
                grid_name=grid,
            )
            assert first.artifact.run["cache"] == {
                "enabled": True,
                "hits": 0,
                "misses": len(specs),
            }
            assert first.all_verified
            second = run_bench(
                specs,
                presets,
                cache_dir=tmp_path,
                grid_name=grid,
            )
            assert second.artifact.run["cache"]["hits"] == len(specs)
            assert results_bytes(second.artifact) == results_bytes(
                first.artifact
            ), grid
            for spec in specs:
                assert second.artifact.timings[spec.name].cache_hit is True
            if grid == "tiny":
                assert results_bytes(first.artifact) == results_bytes(
                    tiny_outcome.artifact
                )

    def test_parallel_populates_cache_for_serial(self, tmp_path):
        parallel = run_bench(
            TINY_SPECS,
            TINY_PRESETS,
            jobs=2,
            cache_dir=tmp_path,
            grid_name="tiny",
        )
        serial = run_bench(
            TINY_SPECS,
            TINY_PRESETS,
            jobs=1,
            cache_dir=tmp_path,
            grid_name="tiny",
        )
        assert serial.artifact.run["cache"]["hits"] == 2
        assert results_bytes(serial.artifact) == results_bytes(
            parallel.artifact
        )


class TestGridSpec:
    def test_spec_config_includes_cells(self):
        spec = BenchSpec(app="EP", num_cells=8, params={"log2_pairs": 9})
        assert spec.config() == {"num_cells": 8, "log2_pairs": 9}
