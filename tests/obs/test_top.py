"""`repro top` rendering and JSON documents, in both modes."""

import json

import pytest

from repro.mlsim.params import ap1000_plus_params
from repro.mlsim.simulator import simulate
from repro.obs.micro import MICRO_CELLS, micro_trace
from repro.obs.top import (
    BENCH_TOP_SCHEMA,
    TOP_SCHEMA,
    bench_top_document,
    render_bench_top,
    render_top,
    top_document,
)


@pytest.fixture(scope="module")
def result():
    return simulate(micro_trace(), ap1000_plus_params(),
                    collect_metrics=True)


class TestTraceMode:
    def test_one_bar_per_pe(self, result):
        text = render_top(result)
        for pe in range(MICRO_CELLS):
            assert f"PE {pe:3d} |" in text
        assert "% busy" in text

    def test_link_heatmap_present(self, result):
        text = render_top(result)
        assert "hottest T-net links" in text
        assert "0->1" in text

    def test_wait_and_dma_summaries(self, result):
        text = render_top(result)
        assert "flag_wait" in text
        assert "barrier_wait" in text
        assert "DMA busy" in text

    def test_document_shape(self, result):
        doc = top_document(result)
        assert doc["schema"] == TOP_SCHEMA
        assert len(doc["per_pe"]) == MICRO_CELLS
        assert doc["metrics"]["schema"] == "repro-obs-replay-v1"
        json.dumps(doc)  # must be JSON-native

    def test_render_without_metrics_degrades(self, result):
        from repro.mlsim.breakdown import MLSimResult

        bare = MLSimResult(model_name=result.model_name,
                           per_pe=list(result.per_pe))
        text = render_top(bare)
        assert "no replay metrics" in text


class TestArtifactMode:
    def test_render_and_document(self, tiny_artifact):
        text = render_bench_top(tiny_artifact)
        assert "EP" in text and "MatMul" in text
        assert "elapsed us" in text
        doc = bench_top_document(tiny_artifact)
        assert doc["schema"] == BENCH_TOP_SCHEMA
        assert set(doc["apps"]) == {"EP", "MatMul"}
        for app in doc["apps"].values():
            assert app["metrics"]["machine"]["observed"] is True
        json.dumps(doc)

    def test_render_tolerates_missing_metrics(self, tiny_artifact):
        from dataclasses import replace

        from repro.bench.schema import BenchArtifact

        clone = BenchArtifact.from_dict(tiny_artifact.to_dict())
        clone.apps["EP"] = replace(clone.apps["EP"], metrics=None)
        text = render_bench_top(clone)
        assert "no metrics block" in text
