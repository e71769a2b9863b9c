"""A killed bench campaign finishes by running it again.

Every row's trace is published to the trace cache as soon as its
functional task finishes, so a campaign interrupted after k recorded
rows and run again on the same cache serves those rows as cache hits,
re-simulates the rest, and must reproduce the uninterrupted artifact's
``results`` section byte for byte.
"""

from __future__ import annotations

import pytest

from repro.bench.cache import TraceCache
from repro.bench.grid import BenchSpec
from repro.bench.runner import run_bench
from repro.bench.schema import results_bytes

SPECS = [
    BenchSpec(app="MatMul", num_cells=4, params={"n": 16}),
    BenchSpec(app="RingShift", num_cells=4, params={"hops": 9}),
    BenchSpec(app="CG", num_cells=4,
              params={"n": 32, "outer": 3, "inner": 3}),
]
PRESETS = ("ap1000", "ap1000+")
GRID = "tiny-resume"


def _campaign(cache_dir=None, *, jobs=1, specs=SPECS, log=None):
    return run_bench(specs, PRESETS, jobs=jobs, cache_dir=cache_dir,
                     use_cache=cache_dir is not None, grid_name=GRID,
                     log=log)


def _kill_after(rows: int):
    """A ``log`` that interrupts the campaign once ``rows`` rows have
    logged their functional stage (their traces are in the cache)."""
    logged = []

    def log(message: str) -> None:
        if "functional" in message:
            logged.append(message)
            if len(logged) == rows:
                raise KeyboardInterrupt
    return log


def _hits(outcome) -> int:
    return outcome.artifact.run["cache"]["hits"]


@pytest.fixture(scope="module")
def reference_bytes():
    """The uninterrupted campaign's canonical results section."""
    return results_bytes(_campaign().artifact)


class TestKillAndResume:
    def test_aborted_campaign_resumes_byte_identical(
            self, tmp_path, reference_bytes):
        with pytest.raises(KeyboardInterrupt):
            _campaign(tmp_path, log=_kill_after(1))
        outcome = _campaign(tmp_path)
        assert results_bytes(outcome.artifact) == reference_bytes
        assert _hits(outcome) == 1

    def test_parallel_resume_matches_too(self, tmp_path, reference_bytes):
        with pytest.raises(KeyboardInterrupt):
            _campaign(tmp_path, jobs=2, log=_kill_after(1))
        outcome = _campaign(tmp_path, jobs=2)
        assert results_bytes(outcome.artifact) == reference_bytes
        # The pool finishes the functional tasks already submitted.
        assert _hits(outcome) >= 1

    def test_each_recorded_row_is_a_cache_entry(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            _campaign(tmp_path, log=_kill_after(2))
        assert [run.name for run in TraceCache(tmp_path).entries()] == [
            "MatMul", "RingShift"]

    def test_changed_config_misses_only_if_unrecorded(self, tmp_path):
        changed = [BenchSpec(app="MatMul", num_cells=4,
                             params={"n": 24})] + SPECS[1:]
        assert _hits(_campaign(tmp_path)) == 0
        assert _hits(_campaign(tmp_path, specs=changed)) == 2
        assert _hits(_campaign(tmp_path, specs=changed)) == 3
        assert _hits(_campaign(tmp_path)) == 3
