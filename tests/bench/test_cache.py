"""Trace cache: hits, misses, and code-version invalidation."""

from __future__ import annotations

import json

import pytest

from repro.apps.workloads import workload
from repro.bench.cache import TraceCache, cache_key, code_version
from repro.mlsim.params import ap1000_plus_params
from repro.mlsim.simulator import simulate

CONFIG = {"num_cells": 4, "n": 40}


def _matmul_run():
    return workload("MatMul").runner(num_cells=4, n=40)


class TestKey:
    def test_key_depends_on_every_component(self):
        base = cache_key("MatMul", CONFIG, "v1")
        assert cache_key("EP", CONFIG, "v1") != base
        assert cache_key("MatMul", {**CONFIG, "n": 41}, "v1") != base
        assert cache_key("MatMul", CONFIG, "v2") != base

    def test_key_ignores_dict_ordering(self):
        flipped = {"n": 40, "num_cells": 4}
        assert cache_key("MatMul", CONFIG, "v1") == cache_key(
            "MatMul", flipped, "v1"
        )

    def test_code_version_is_stable_sha(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64


class TestStore:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = TraceCache(tmp_path, "v1")
        assert cache.get("MatMul", CONFIG) is None

    def test_hit_after_put(self, tmp_path):
        cache = TraceCache(tmp_path, "v1")
        run = _matmul_run()
        stored = cache.put("MatMul", CONFIG, run, 0.5)
        assert stored.cache_hit is False

        hit = cache.get("MatMul", CONFIG)
        assert hit is not None
        assert hit.cache_hit is True
        assert hit.verified is True
        assert hit.total_events == run.trace.total_events
        assert hit.functional_wall_s == 0.5
        assert hit.statistics == run.statistics

    def test_hit_replays_identically(self, tmp_path):
        cache = TraceCache(tmp_path, "v1")
        run = _matmul_run()
        cache.put("MatMul", CONFIG, run, 0.0)
        hit = cache.get("MatMul", CONFIG)
        fresh = simulate(run.trace, ap1000_plus_params())
        cached = simulate(hit.trace, ap1000_plus_params())
        assert cached.elapsed_us == fresh.elapsed_us
        assert cached.messages == fresh.messages
        assert cached.bytes_on_wire == fresh.bytes_on_wire

    def test_code_version_change_invalidates(self, tmp_path):
        old = TraceCache(tmp_path, "v1")
        old.put("MatMul", CONFIG, _matmul_run(), 0.0)
        assert old.get("MatMul", CONFIG) is not None
        assert TraceCache(tmp_path, "v2").get("MatMul", CONFIG) is None

    def test_config_change_invalidates(self, tmp_path):
        cache = TraceCache(tmp_path, "v1")
        cache.put("MatMul", CONFIG, _matmul_run(), 0.0)
        assert cache.get("MatMul", {**CONFIG, "n": 48}) is None

    def test_corrupt_meta_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path, "v1")
        cache.put("MatMul", CONFIG, _matmul_run(), 0.0)
        meta = cache.entry_dir("MatMul", CONFIG) / "meta.json"
        meta.write_text("{not json", encoding="utf-8")
        assert cache.get("MatMul", CONFIG) is None


class TestCrashSafety:
    """Entries left by a killed writer are quarantined, never served
    and never fatal; publishes are atomic."""

    def _populate(self, tmp_path):
        cache = TraceCache(tmp_path, "v1")
        cache.put("MatMul", CONFIG, _matmul_run(), 0.0)
        return cache, cache.entry_dir("MatMul", CONFIG)

    def test_truncated_trace_is_quarantined(self, tmp_path):
        cache, entry = self._populate(tmp_path)
        trace = entry / "trace.jsonl"
        trace.write_bytes(trace.read_bytes()[:-3])  # torn last record
        assert cache.get("MatMul", CONFIG) is None
        assert not entry.exists()
        moved = tmp_path / ".quarantine" / entry.name
        assert moved.is_dir()
        reason = (moved / "QUARANTINED.txt").read_text(encoding="utf-8")
        assert "truncated" in reason

    def test_empty_trace_is_quarantined(self, tmp_path):
        cache, entry = self._populate(tmp_path)
        (entry / "trace.jsonl").write_bytes(b"")
        assert cache.get("MatMul", CONFIG) is None
        assert (tmp_path / ".quarantine" / entry.name).is_dir()

    @pytest.mark.parametrize("tear, said", [
        ("mid_block", "truncated"),
        ("mid_block_after_a_newline_byte", "block is short"),
        ("closing_newline", "truncated"),
        ("header_total", "block is short"),
    ])
    def test_torn_block_is_quarantined(self, tmp_path, tear, said):
        """No decoder falls back to anything: whatever is wrong with
        the one file reaches ``get`` as the loader's SimulationError,
        is kept with that text, and reads as a miss."""
        cache, entry = self._populate(tmp_path)
        trace = entry / "trace.jsonl"
        assert sorted(p.name for p in entry.iterdir()) == [
            "meta.json", "trace.jsonl"]
        data = trace.read_bytes()
        head, _, body = data.partition(b"\n")
        if tear.startswith("mid_block"):
            torn = bytearray(data[:len(head) + len(body) // 2])
            # A block is any bytes: the cut may fall behind a 0x0A, and
            # then only the size says the file is torn.
            torn[-1:] = b"\n" if tear.endswith("newline_byte") else b"\x00"
            trace.write_bytes(torn)
        elif tear == "closing_newline":
            trace.write_bytes(data[:-1])
        else:
            header = json.loads(head)
            header["total"] += 1
            trace.write_bytes(json.dumps(header).encode() + b"\n" + body)
        assert cache.get("MatMul", CONFIG) is None
        assert not entry.exists()
        moved = tmp_path / ".quarantine" / entry.name
        reason = (moved / "QUARANTINED.txt").read_text(encoding="utf-8")
        assert reason.startswith("SimulationError:") and said in reason
        assert str(trace) in reason

    def test_quarantined_key_can_be_repopulated(self, tmp_path):
        cache, entry = self._populate(tmp_path)
        (entry / "trace.jsonl").write_bytes(b"")
        assert cache.get("MatMul", CONFIG) is None
        cache.put("MatMul", CONFIG, _matmul_run(), 0.0)
        hit = cache.get("MatMul", CONFIG)
        assert hit is not None and hit.verified
        # The post-mortem copy is still there for inspection.
        assert (tmp_path / ".quarantine" / entry.name).is_dir()

    def test_put_leaves_no_staging_debris(self, tmp_path):
        cache, entry = self._populate(tmp_path)
        cache.put("MatMul", CONFIG, _matmul_run(), 0.0)  # overwrite
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith(".staging-")]
        assert leftovers == []
        assert cache.get("MatMul", CONFIG) is not None
