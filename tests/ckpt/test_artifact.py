"""The ``repro-ckpt-v1`` artifact: round-trip and loud refusals."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.apps.workloads import workload
from repro.ckpt.snapshot import (
    latest_snapshot,
    load_snapshot,
    restore_machine,
    resume_workload,
)
from repro.ckpt.snapshot import (
    _NOT_IDENTITY,
    SCHEMA,
    _config_from_document,
    config_document,
    config_hash,
)
from repro.core.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig


def _header_path(snapshot_dir):
    return snapshot_dir / "header.json"


def _edit_header(snapshot_dir, **fields):
    path = _header_path(snapshot_dir)
    header = json.loads(path.read_text(encoding="utf-8"))
    header.update(fields)
    path.write_text(json.dumps(header), encoding="utf-8")


class TestRoundTrip:
    def test_save_load_preserves_everything(self, matmul_snapshot_dir):
        path = latest_snapshot(matmul_snapshot_dir)
        assert path is not None
        snapshot = load_snapshot(path)
        again = load_snapshot(path)
        assert snapshot.header == again.header
        assert snapshot.header["schema"] == SCHEMA
        assert snapshot.resumable
        assert snapshot.app["workload"] == "MatMul"
        assert snapshot.state.keys() == again.state.keys()
        assert snapshot.memories.keys() == again.memories.keys()
        for key, mem in snapshot.memories.items():
            np.testing.assert_array_equal(mem, again.memories[key])

    def test_header_hash_covers_its_own_config(self, matmul_snapshot_dir):
        snapshot = load_snapshot(latest_snapshot(matmul_snapshot_dir))
        assert snapshot.header["config_hash"] == config_hash(
            snapshot.header["config"])

    def test_latest_picks_the_newest_sequence(self, matmul_snapshot_dir):
        names = sorted(p.name for p in matmul_snapshot_dir.iterdir()
                       if p.name.startswith("ckpt_"))
        assert len(names) > 1
        assert latest_snapshot(matmul_snapshot_dir).name == names[-1]

    def test_directory_argument_resolves_to_newest(
            self, matmul_snapshot_dir):
        by_dir = load_snapshot(matmul_snapshot_dir)
        by_path = load_snapshot(latest_snapshot(matmul_snapshot_dir))
        assert by_dir.header == by_path.header


class TestConfigDocument:
    #: A strict extended machine with every identity field off its
    #: default (``extended`` was the one the hand-kept list forgot).
    CONFIG = MachineConfig(
        num_cells=2048, memory_per_cell=64 << 20, clock_mhz=25.0,
        cache_bytes=1 << 14, trace_capacity=12345, allow_nonstandard=False,
        sanitize=True, fault_plan=FaultPlan(name="storm", seed=3,
                                            drop_rate=0.1),
        extended=True, checkpoint_every=2, checkpoint_at_site=3,
        stop_after_checkpoint=True, checkpoint_dir="x", observe=True,
        shards=2)

    def test_every_identity_field_survives_the_header(self):
        config = self.CONFIG
        document = config_document(config)
        json.dumps(document)  # the header is JSON
        back = _config_from_document(document)
        default = MachineConfig()
        for field in dataclasses.fields(MachineConfig):
            name = field.name
            # A new field lands here: give it a non-default value above.
            assert getattr(config, name) != field.default, name
            if name in _NOT_IDENTITY:
                assert name not in document
                assert getattr(back, name) == getattr(default, name), name
            else:
                assert getattr(back, name) == getattr(config, name), name


def _copy_newest(matmul_snapshot_dir, tmp_path):
    import shutil

    src = latest_snapshot(matmul_snapshot_dir)
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


class TestRefusals:
    def test_empty_directory(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no checkpoint"):
            load_snapshot(tmp_path)

    def test_unknown_schema(self, matmul_snapshot_dir, tmp_path):
        snap = _copy_newest(matmul_snapshot_dir, tmp_path)
        _edit_header(snap, schema="repro-ckpt-v99")
        with pytest.raises(ConfigurationError, match="repro-ckpt-v99"):
            load_snapshot(snap)

    def test_corrupt_config_hash(self, matmul_snapshot_dir, tmp_path):
        snap = _copy_newest(matmul_snapshot_dir, tmp_path)
        _edit_header(snap, config_hash="0" * 16)
        with pytest.raises(ConfigurationError, match="corrupt"):
            load_snapshot(snap)

    def test_code_version_mismatch(self, matmul_snapshot_dir, tmp_path):
        # The config hash only covers the config document, so a stale
        # code_version loads fine — restore is where it must refuse.
        snap = _copy_newest(matmul_snapshot_dir, tmp_path)
        _edit_header(snap, code_version="f" * 64)
        snapshot = load_snapshot(snap)
        with pytest.raises(ConfigurationError, match="code version"):
            restore_machine(snapshot)

    def test_hang_dump_is_not_resumable(
            self, matmul_snapshot_dir, tmp_path):
        snap = _copy_newest(matmul_snapshot_dir, tmp_path)
        _edit_header(snap, resumable=False)
        with pytest.raises(ConfigurationError, match="deadlock dump"):
            restore_machine(load_snapshot(snap))

    def test_resume_refuses_a_different_workload(
            self, matmul_snapshot_dir):
        snap = latest_snapshot(matmul_snapshot_dir)
        with pytest.raises(ConfigurationError, match="captured by"):
            workload("CG").run(num_cells=4, n=32, outer=3, inner=3,
                               resume_from=str(snap))

    def test_resume_refuses_different_parameters(
            self, matmul_snapshot_dir):
        snap = latest_snapshot(matmul_snapshot_dir)
        with pytest.raises(ConfigurationError, match="captured by"):
            workload("MatMul").run(num_cells=8, n=16, resume_from=str(snap))

    def test_resume_workload_needs_app_metadata(
            self, matmul_snapshot_dir, tmp_path):
        snap = _copy_newest(matmul_snapshot_dir, tmp_path)
        _edit_header(snap, app=None)
        with pytest.raises(ConfigurationError,
                           match="no application metadata"):
            resume_workload(snap)
