"""Landing ingested traces in the bench trace cache.

Published entries must be indistinguishable from functional-run
entries: atomic, keyed on source content + mapping knobs, servable by
every trace-consuming CLI verb.
"""

from __future__ import annotations

import pytest

from repro.bench.cache import TraceCache
from repro.core.errors import IngestError
from repro.ingest.cache import (
    ingest_app_name,
    ingest_config,
    land_in_cache,
    source_digest,
)
from repro.ingest.mapper import ingest_file
from repro.trace.io import load_trace


@pytest.fixture
def ring(examples_dir):
    return examples_dir / "ring4.vef"


class TestLanding:
    def test_publishes_a_servable_entry(self, ring, tmp_path):
        result = ingest_file(ring)
        cached = land_in_cache(result, ring, reader="vef",
                               cache_dir=tmp_path)
        assert not cached.cache_hit
        assert cached.verified
        assert cached.checks["reader"] == "vef"
        assert cached.checks["num_ranks"] == 4
        loaded = load_trace(cached.trace_path)
        assert loaded.total_events == result.trace.total_events

    def test_reingest_is_idempotent(self, ring, tmp_path):
        first = land_in_cache(ingest_file(ring), ring,
                              cache_dir=tmp_path)
        again = land_in_cache(ingest_file(ring), ring,
                              cache_dir=tmp_path)
        assert again.cache_hit
        assert again.trace_path == first.trace_path

    def test_mapping_knobs_key_distinct_entries(self, ring, tmp_path):
        a = land_in_cache(ingest_file(ring), ring, cache_dir=tmp_path)
        b = land_in_cache(ingest_file(ring, cells=8), ring,
                          cache_dir=tmp_path)
        assert a.trace_path != b.trace_path
        assert not b.cache_hit

    def test_edited_source_lands_fresh(self, ring, tmp_path):
        copy = tmp_path / "ring4.vef"
        copy.write_text(ring.read_text())
        a = land_in_cache(ingest_file(copy), copy,
                          cache_dir=tmp_path / "cache")
        copy.write_text(ring.read_text() + "90 0 barrier\n"
                        + "90 1 barrier\n" + "90 2 barrier\n"
                        + "90 3 barrier\n")
        b = land_in_cache(ingest_file(copy), copy,
                          cache_dir=tmp_path / "cache")
        assert a.trace_path != b.trace_path

    def test_entry_survives_cache_validation(self, ring, tmp_path):
        result = ingest_file(ring)
        cached = land_in_cache(result, ring, cache_dir=tmp_path)
        cache = TraceCache(tmp_path)
        served = cache.get(ingest_app_name(ring),
                           ingest_config(result, source_digest(ring)))
        assert served is not None
        assert served.trace_path == cached.trace_path


class TestDigest:
    def test_digest_is_content_addressed(self, ring, tmp_path):
        copy = tmp_path / "renamed.trace"
        copy.write_bytes(ring.read_bytes())
        assert source_digest(copy) == source_digest(ring)

    def test_unreadable_source_is_structured(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            source_digest(tmp_path / "missing.vef")

    def test_app_name_uses_the_stem(self, ring):
        assert ingest_app_name(ring) == "ingest:ring4"
