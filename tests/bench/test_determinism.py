"""Bench determinism regressions.

One bug this file pins down:

* Trace-event interning (phase labels, packet serials) must not depend
  on whether an app was recorded by the serial runner or inside a
  worker process: the same grid under ``jobs=1`` and ``jobs=2`` must
  produce byte-identical results sections.  Before packet serials
  became per-network counters, any network constructed earlier in the
  same process shifted every downstream serial, so results depended on
  run order.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.grid import BenchSpec, micro_specs
from repro.bench.runner import run_bench
from repro.bench.schema import results_bytes

GROUPED_SPECS = [
    # CG is collective-heavy (partial-group reductions); RingShift
    # stresses neighbour traffic and packet-serial ordering.
    BenchSpec(app="CG", num_cells=4, params={"n": 40, "outer": 2,
                                             "inner": 3}),
    BenchSpec(app="RingShift", num_cells=8, params={"hops": 24}),
]
PRESETS = ("ap1000", "ap1000+")


@pytest.fixture(scope="module")
def serial_outcome():
    return run_bench(GROUPED_SPECS, PRESETS, jobs=1, use_cache=False,
                     grid_name="tiny")


class TestInterningDeterminism:
    def test_parallel_matches_serial_with_groups(self, serial_outcome,
                                                 tmp_path):
        parallel = run_bench(GROUPED_SPECS, PRESETS, jobs=2,
                             cache_dir=tmp_path, use_cache=False,
                             grid_name="tiny")
        assert results_bytes(parallel.artifact) == results_bytes(
            serial_outcome.artifact)

    def test_packet_serials_start_at_zero_per_run(self):
        # Per-network serials (not a process-global counter) are what
        # keep worker-process recordings aligned with serial ones.
        machine = GROUPED_SPECS[1].run().machine
        assert machine.tnet.injected_count > 0


class TestCommittedArtifact:
    def test_latency_rows_of_the_canonical_micro_grid_reproduce(self):
        """The PUT-bound rows of ``BENCH_micro_canonical.json``, fresh:
        checks, trace statistics, the ``machine_metrics`` document
        (MSC+, queue, DMA and network counters) and every replay, byte
        for byte.  Host-side work on the message path must not show in
        any of them."""
        root = Path(__file__).resolve().parents[2]
        committed = json.loads(
            (root / "BENCH_micro_canonical.json").read_text("utf-8"))
        specs = [spec for spec in micro_specs()
                 if spec.app in ("PingPong", "RingShift")]
        fresh = run_bench(specs, use_cache=False, grid_name="micro")
        rows = fresh.artifact.results()["apps"]
        assert sorted(rows) == ["PingPong", "RingShift"]
        for app, row in rows.items():
            assert (json.dumps(row, sort_keys=True)
                    == json.dumps(committed["results"]["apps"][app],
                                  sort_keys=True)), app
