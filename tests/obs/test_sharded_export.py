"""Flow arrows under sharded execution.

``repro trace export`` renders flow arrows from the recorded trace's
message events; the sharded multiprocess engine must therefore be
invisible in the export too.  The golden fixture
``tests/obs/golden/matmul4.perfetto.json`` pins the serial bytes
(MatMul has PUT + flag + barrier traffic, so the document carries real
packet flows), and every shard count must reproduce them exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps.workloads import workload
from repro.machine import sharded
from repro.mlsim.params import ap1000_plus_params
from repro.obs.export import export_trace

GOLDEN = Path(__file__).parent / "golden" / "matmul4.perfetto.json"

#: Matches ``repro trace export --app MatMul --cells 4`` (the fixture's
#: regeneration command): default MatMul parameters on four cells.
APP, CELLS = "MatMul", 4


def export_with(shards: int, monkeypatch) -> str:
    monkeypatch.setenv("REPRO_MACHINE_SHARDS", str(shards))
    run = workload(APP).run(num_cells=CELLS)
    return export_trace(run.trace, ap1000_plus_params(), "perfetto")


class TestSerialGolden:
    def test_serial_export_matches_golden(self, monkeypatch):
        assert export_with(1, monkeypatch) == GOLDEN.read_text()

    def test_golden_carries_flow_arrows(self):
        doc = json.loads(GOLDEN.read_text())
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}


@pytest.mark.skipif(not sharded.sharded_supported(),
                    reason="platform lacks the fork start method")
class TestShardedGolden:
    @pytest.mark.parametrize("shards", (2, 4))
    def test_sharded_export_byte_identical_to_serial(
            self, shards, monkeypatch):
        assert export_with(shards, monkeypatch) == \
            GOLDEN.read_text()
