"""Unit tests for machine configurations (Table 1)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.machine.config import (
    MEGABYTE,
    PEAK_MFLOPS_PER_CELL,
    MachineConfig,
)


class TestOfficialConfigs:
    def test_smallest_machine(self):
        cfg = MachineConfig.official(4)
        assert cfg.system_performance_gflops == pytest.approx(0.2)

    def test_largest_machine(self):
        cfg = MachineConfig.official(1024, memory_per_cell=64 * MEGABYTE)
        assert cfg.system_performance_gflops == pytest.approx(51.2)

    def test_peak_per_cell_is_50_mflops(self):
        assert MachineConfig.official(4).peak_mflops_per_cell == \
            PEAK_MFLOPS_PER_CELL == 50.0

    def test_cell_count_range_enforced(self):
        with pytest.raises(ConfigurationError):
            MachineConfig.official(2)
        with pytest.raises(ConfigurationError):
            MachineConfig.official(2048)

    def test_memory_options_enforced(self):
        with pytest.raises(ConfigurationError):
            MachineConfig.official(64, memory_per_cell=32 * MEGABYTE)

    def test_official_memory_options_ok(self):
        for mem in (16 * MEGABYTE, 64 * MEGABYTE):
            assert MachineConfig.official(16, memory_per_cell=mem)


class TestExtendedConfigs:
    """Past Table 1 a strict configuration has no extended range: only
    ``allow_nonstandard`` (the default) runs more than 1024 cells."""

    def test_official_presets_stay_within_table1(self):
        with pytest.raises(ConfigurationError):
            MachineConfig.official(2048)


class TestNonstandardConfigs:
    def test_small_test_machines_allowed_by_default(self):
        cfg = MachineConfig(num_cells=2, memory_per_cell=1 << 20)
        assert cfg.num_cells == 2

    def test_at_least_one_cell(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cells=0)

    def test_tiny_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cells=4, memory_per_cell=100)

    def test_cache_is_36k(self):
        assert MachineConfig().cache_bytes == 36 * 1024
