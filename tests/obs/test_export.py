"""Timeline export: document structure and byte-determinism.

The golden fixtures under ``tests/obs/golden/`` pin the exact bytes of
the micro workload's Perfetto and Chrome exports; CI re-exports and
``cmp``s against them, so regenerate deliberately (see the README in
that directory) whenever the timing model or export format changes.
"""

import json
from pathlib import Path

import pytest

from repro.core.errors import ConfigurationError
from repro.mlsim.params import ap1000_plus_params
from repro.obs.export import export_trace, replay_with_timeline
from repro.obs.micro import micro_trace

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def perfetto_text():
    return export_trace(micro_trace(), ap1000_plus_params(), "perfetto")


class TestDocumentStructure:
    @pytest.fixture(scope="class")
    def doc(self):
        text = export_trace(micro_trace(), ap1000_plus_params(),
                            "perfetto")
        return json.loads(text)

    def test_one_thread_track_per_pe(self, doc):
        names = [e for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert [e["tid"] for e in names] == [0, 1, 2, 3]

    def test_spans_use_section53_buckets(self, doc):
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans
        assert {s["cat"] for s in spans} <= {
            "execution", "rtsys", "overhead", "idle"}

    def test_flow_pairs_balance(self, doc):
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        assert all(e["cat"] == "packet" for e in starts + finishes)

    def test_phase_instants_present(self, doc):
        phases = [e for e in doc["traceEvents"]
                  if e["ph"] == "i" and e["cat"] == "phase"]
        assert {e["name"] for e in phases} == {
            "init", "exchange", "reduce"}

    def test_metrics_ride_in_other_data(self, doc):
        metrics = doc["otherData"]["metrics"]
        assert metrics["schema"] == "repro-obs-replay-v1"
        assert metrics["links"]

    def test_chrome_subset_has_no_flows_or_instants(self):
        text = export_trace(micro_trace(), ap1000_plus_params(),
                            "chrome")
        doc = json.loads(text)
        assert {e["ph"] for e in doc["traceEvents"]} == {"M", "X"}
        assert "metrics" not in doc["otherData"]

    def test_jsonl_is_not_an_export_format(self):
        """The trace file has one writer, ``repro run --trace``'s; an
        export is always a replay timeline."""
        with pytest.raises(ConfigurationError, match="perfetto"):
            export_trace(micro_trace(), ap1000_plus_params(), "jsonl")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError):
            export_trace(micro_trace(), ap1000_plus_params(), "svg")


class TestDeterminism:
    def test_repeat_run_byte_identical(self, perfetto_text):
        again = export_trace(micro_trace(), ap1000_plus_params(),
                             "perfetto")
        assert again == perfetto_text

    def test_repeat_replay_of_one_trace_byte_identical(self):
        trace = micro_trace()
        first = export_trace(trace, ap1000_plus_params(), "perfetto")
        second = export_trace(trace, ap1000_plus_params(), "perfetto")
        assert first == second

    def test_matches_golden_perfetto_fixture(self, perfetto_text):
        golden = (GOLDEN / "micro.perfetto.json").read_text()
        assert perfetto_text == golden

    def test_matches_golden_chrome_fixture(self):
        text = export_trace(micro_trace(), ap1000_plus_params(),
                            "chrome")
        golden = (GOLDEN / "micro.chrome.json").read_text()
        assert text == golden


class TestReplayHelper:
    def test_returns_engine_with_timeline_and_metrics(self):
        result = replay_with_timeline(micro_trace(), ap1000_plus_params())
        assert result.timeline is not None
        assert result.timeline.flows
        assert result.metrics is not None
