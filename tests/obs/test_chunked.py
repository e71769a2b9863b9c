"""Chunked timeline export (``trace export --chunk-events N``).

Contract: every chunk is a standalone openable document; flow ids are
global, so arrows straddling a chunk boundary still pair; and merging
the chunks reproduces the monolithic export *byte for byte* — the same
determinism the golden fixtures pin, extended across file boundaries.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.mlsim.params import ap1000_plus_params
from repro.obs.export import (
    export_trace,
    export_trace_chunked,
    merge_chunks,
)
from repro.obs.micro import micro_trace


def chunked(chunk_events, fmt="perfetto"):
    return list(export_trace_chunked(micro_trace(), ap1000_plus_params(),
                                     fmt, chunk_events=chunk_events))


@pytest.fixture(scope="module")
def monolithic():
    return export_trace(micro_trace(), ap1000_plus_params(), "perfetto")


class TestEquivalence:
    @pytest.mark.parametrize("chunk_events", (1, 5, 64, 100_000))
    def test_merge_is_byte_identical(self, chunk_events, monolithic):
        chunks = chunked(chunk_events)
        assert merge_chunks(chunks) == monolithic

    def test_chrome_format_chunks_too(self):
        mono = export_trace(micro_trace(), ap1000_plus_params(),
                            "chrome")
        assert merge_chunks(chunked(7, "chrome")) == mono

    def test_small_chunks_really_split(self, monolithic):
        chunks = chunked(5)
        payload = [e for e in json.loads(monolithic)["traceEvents"]
                   if e["ph"] != "M"]
        assert len(chunks) == -(-len(payload) // 5)  # ceil division


class TestChunkDocuments:
    def test_every_chunk_is_standalone(self):
        for index, text in enumerate(chunked(10)):
            doc = json.loads(text)
            metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
            assert any(e["name"] == "process_name" for e in metas)
            assert doc["otherData"]["chunk"] == index

    def test_payload_capped_at_chunk_events(self):
        for text in chunked(10):
            doc = json.loads(text)
            payload = [e for e in doc["traceEvents"] if e["ph"] != "M"]
            assert len(payload) <= 10

    def test_flow_ids_stable_across_chunk_boundaries(self, monolithic):
        # chunk_events=1 maximally separates every s/f pair.
        starts: dict[int, int] = {}
        finishes: dict[int, int] = {}
        for text in chunked(1):
            for e in json.loads(text)["traceEvents"]:
                if e["ph"] == "s":
                    starts[e["id"]] = e["tid"]
                elif e["ph"] == "f":
                    finishes[e["id"]] = e["tid"]
        mono_ids = {e["id"] for e in json.loads(monolithic)["traceEvents"]
                    if e["ph"] == "s"}
        assert set(starts) == set(finishes) == mono_ids
        # arrows go somewhere: at least one pair crosses PEs
        assert any(starts[i] != finishes[i] for i in starts)


class TestValidation:
    def test_jsonl_cannot_chunk(self):
        """``jsonl`` is no export format at all (the trace file is
        ``repro run --trace``'s); a chunk names the ones there are."""
        with pytest.raises(ConfigurationError,
                           match="cannot chunk format 'jsonl'.*perfetto"):
            chunked(5, "jsonl")

    def test_chunk_events_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            chunked(0)

    def test_merge_rejects_out_of_order_chunks(self):
        chunks = chunked(5)
        with pytest.raises(ConfigurationError, match="out of order"):
            merge_chunks(reversed(chunks))

    def test_merge_rejects_nothing(self):
        with pytest.raises(ConfigurationError, match="no chunks"):
            merge_chunks([])
