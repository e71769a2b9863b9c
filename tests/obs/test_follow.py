"""Live follow mode (``repro top --follow``).

FollowState tails a growing stream-trace file: each poll consumes only
the new complete records — header, chunks, footer — (a torn tail from a
live writer waits for the next tick), aggregates in constant memory,
and the renderer never replays — a live run is still producing the
trace.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.workloads import workload
from repro.bench.cache import TraceCache
from repro.core.errors import SimulationError
from repro.obs.follow import (
    FollowState,
    follow_document,
    render_cache_follow,
    render_follow,
)
from repro.obs.micro import micro_trace
from repro.trace.buffer import streaming_to
from repro.trace.io import FORMAT_V2, StreamTraceWriter, save_trace


@pytest.fixture
def stream_path(tmp_path):
    path = tmp_path / "micro.stream.trc"
    with StreamTraceWriter(path, flush_events=8) as writer:
        with streaming_to(writer):
            micro_trace(4)
    return path


class TestIncrementalPolling:
    def test_full_file_poll(self, stream_path):
        state = FollowState(stream_path)
        assert state.poll() > 0
        assert state.complete
        assert state.num_pes == 4
        assert state.total_events == sum(state.pe_events)
        assert state.poll() == 0  # nothing new

    def test_incremental_growth(self, stream_path, tmp_path):
        full = stream_path.read_bytes()
        growing = tmp_path / "growing.trc"
        state = FollowState(growing)
        half = len(full) // 2
        growing.write_bytes(full[:half])
        first = state.poll()
        assert not state.complete
        growing.write_bytes(full)  # the writer catches up
        second = state.poll()
        assert first > 0 and second > 0
        assert state.complete
        # Increments must add up to exactly one full read.
        fresh = FollowState(stream_path)
        fresh.poll()
        assert state.total_events == fresh.total_events
        assert state.kind_counts == fresh.kind_counts

    def test_torn_tail_left_for_next_tick(self, stream_path, tmp_path):
        data = stream_path.read_bytes()
        torn = tmp_path / "torn.trc"
        torn.write_bytes(data[:-20])  # mid-footer cut
        state = FollowState(torn)
        state.poll()
        events_before = state.total_events
        assert not state.complete
        torn.write_bytes(data)  # line completed later
        state.poll()
        assert state.complete
        assert state.total_events >= events_before

    def test_phase_progress_tracked(self, stream_path):
        state = FollowState(stream_path)
        state.poll()
        assert state.phase_labels == ["init", "exchange", "reduce"]
        assert set(state.phase_entries) == {1, 2, 3}
        assert all(n == 4 for n in state.phase_entries.values())

    def test_link_traffic_and_queue_pressure(self, stream_path):
        state = FollowState(stream_path)
        state.poll()
        assert state.links  # micro has PUT/GET/SEND traffic
        assert state.bytes_on_wire > 0
        assert max(state.inflight_high_water) >= 1

    def test_missing_file_is_a_clean_error(self, tmp_path):
        state = FollowState(tmp_path / "gone.jsonl")
        with pytest.raises(SimulationError, match="cannot follow"):
            state.poll()

    def test_non_stream_format_is_refused_with_hint(self, tmp_path):
        path = tmp_path / "v2.trc"
        save_trace(micro_trace(4), path)
        assert json.loads(path.read_bytes().partition(b"\n")[0])[
            "format"] == FORMAT_V2
        state = FollowState(path)
        with pytest.raises(SimulationError, match="--stream"):
            state.poll()


class TestRendering:
    def test_render_mentions_liveness_and_pes(self, stream_path):
        state = FollowState(stream_path)
        state.poll()
        text = render_follow(state)
        assert "complete" in text
        assert "PE   0" in text
        assert "event mix" in text

    def test_render_before_header_waits(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        state = FollowState(p)
        state.poll()
        assert "waiting" in render_follow(state)

    def test_document_schema(self, stream_path):
        state = FollowState(stream_path)
        state.poll()
        doc = follow_document(state)
        assert doc["schema"] == "repro-top-follow-v1"
        assert doc["complete"] is True
        assert doc["num_pes"] == 4
        json.dumps(doc)  # must be JSON-clean


class TestCacheFollow:
    """``repro top --follow`` over a bench campaign's trace cache."""

    @pytest.fixture(scope="class")
    def run(self):
        return workload("MatMul").runner(num_cells=4, n=16)

    def test_entries_list_this_code_version(self, tmp_path, run):
        TraceCache(tmp_path, "v1").put("MatMul", {"num_cells": 4}, run, 1.0)
        TraceCache(tmp_path, "v2").put("MatMul", {"num_cells": 4}, run, 2.0)
        TraceCache(tmp_path, "v1").put("EP", {"num_cells": 4}, run, 3.0)
        entries = TraceCache(tmp_path, "v1").entries()
        assert [(e.name, e.functional_wall_s) for e in entries] == [
            ("MatMul", 1.0), ("EP", 3.0)]

    def test_staging_and_quarantine_are_skipped(self, tmp_path, run):
        cache = TraceCache(tmp_path, "v1")
        cache.put("MatMul", {"num_cells": 4}, run, 1.0)
        cache.quarantine(cache.entry_dir("MatMul", {"num_cells": 4}),
                         reason="test")
        staging = tmp_path / ".staging-x"
        staging.mkdir()
        (staging / "meta.json").write_text("{", encoding="utf-8")
        assert cache.entries() == []
        assert TraceCache(tmp_path / "missing", "v1").entries() == []

    def test_render_lists_entries(self, tmp_path, run):
        cache = TraceCache(tmp_path, "v1")
        cache.put("MatMul", {"num_cells": 4, "n": 16}, run, 1.5)
        text = render_cache_follow(cache)
        assert f"trace cache {tmp_path}: 1 entries" in text
        assert "MatMul" in text and "VERIFIED" in text
        assert f"{run.trace.total_events} events" in text
        assert "functional    1.50s" in text
