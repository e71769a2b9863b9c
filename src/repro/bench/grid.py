"""Experiment grids for the benchmark runner.

The paper's evaluation is a sweep over (application x parameter file):
each application's trace is recorded once on the functional machine and
replayed through MLSim under every parameter preset.  A grid is a list
of :class:`BenchSpec` rows (one functional run each) plus the preset
names to replay every trace under.

Four grids are defined here:

* :func:`bench_specs` — the benchmark-scale configurations used by
  ``pytest benchmarks/`` (the Table 2/3 rows at or near paper scale);
* :func:`smoke_specs` — a two-app, seconds-long grid for CI smoke runs;
* :func:`micro_specs` — the perf-lane grid (latency microbenchmarks +
  a small CG) timed by ``repro bench perf``;
* :func:`workload_specs` — the workload registry's default or paper
  sizes, used by ``repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.apps.workloads import ORDER, workload
from repro.core.errors import ConfigurationError
from repro.machine.config import MachineConfig

#: All Figure 6 parameter presets, in canonical replay order.
ALL_PRESETS = ("ap1000", "ap1000-fast", "ap1000+")

#: The two presets the CI smoke job replays (the headline comparison).
SMOKE_PRESETS = ("ap1000", "ap1000+")

#: Benchmark-scale configuration per application row (EXPERIMENTS.md
#: documents each deviation from the paper's section 5.2 sizes).
BENCH_CONFIGS: dict[str, dict[str, Any]] = {
    "EP": dict(num_cells=64, log2_pairs=16),
    "CG": dict(num_cells=16, n=1400, outer=15, inner=25),
    "FT": dict(num_cells=16, shape=(64, 64, 64), iters=6),
    "SP": dict(num_cells=32, shape=(64, 64, 64), iters=10),
    "TC st": dict(num_cells=16, n=257, iters=10, use_stride=True),
    "TC no st": dict(num_cells=16, n=257, iters=10, use_stride=False),
    "MatMul": dict(num_cells=64, n=800),
    "SCG": dict(num_cells=64, m=200),
}

#: CI smoke grid: one VPP Fortran app and one C app, small sizes.
SMOKE_CONFIGS: dict[str, dict[str, Any]] = {
    "EP": dict(num_cells=16, log2_pairs=12),
    "MatMul": dict(num_cells=16, n=200),
}

#: Perf-lane grid (``repro bench perf``): the section 5 latency
#: microbenchmarks at many cells — long blocking chains that stress the
#: SPMD scheduler — plus one real solver whose trace is dominated by the
#: section 5.3 replay arithmetic.  Sized for seconds per run so the CI
#: perf job can afford cold + warm passes under both engine modes.
MICRO_CONFIGS: dict[str, dict[str, Any]] = {
    "PingPong": dict(num_cells=256, iters=1024),
    "RingShift": dict(num_cells=256, hops=2048),
    "CG": dict(num_cells=16, n=700, outer=8, inner=25),
}


@dataclass(frozen=True)
class BenchSpec:
    """One functional run of the grid: an application and its config."""

    app: str
    num_cells: int
    params: dict[str, Any] = field(default_factory=dict)

    def config(self) -> dict[str, Any]:
        """The full configuration, cell count included (cache key and
        artifact provenance)."""
        return {"num_cells": self.num_cells, **self.params}

    def run(self, config: MachineConfig | None = None,
            resume_from: str | None = None):
        """Execute the functional run on a machine configured by
        ``config`` and return the verified AppRun."""
        return workload(self.app).runner(
            num_cells=self.num_cells, config=config,
            resume_from=resume_from, **self.params
        )


def _specs_from(configs: dict[str, dict[str, Any]]) -> list[BenchSpec]:
    specs = []
    for name, cfg in configs.items():
        cfg = dict(cfg)
        cells = cfg.pop("num_cells")
        specs.append(BenchSpec(app=name, num_cells=cells, params=cfg))
    return specs


def bench_specs(
    names: tuple[str, ...] | None = None,
) -> list[BenchSpec]:
    """The full benchmark grid (all eight Table 2/3 rows), optionally
    restricted to ``names`` (paper row order is preserved)."""
    selected = ORDER if names is None else names
    unknown = [n for n in selected if n not in BENCH_CONFIGS]
    if unknown:
        raise ConfigurationError(
            f"unknown benchmark apps {unknown}; choose from {list(ORDER)}"
        )
    ordered = [n for n in ORDER if n in selected]
    return _specs_from({n: BENCH_CONFIGS[n] for n in ordered})


def smoke_specs() -> list[BenchSpec]:
    """The CI smoke grid: EP + MatMul at small sizes."""
    return _specs_from(SMOKE_CONFIGS)


def micro_specs() -> list[BenchSpec]:
    """The perf-lane grid: latency microbenchmarks + a small CG."""
    return _specs_from(MICRO_CONFIGS)


def workload_specs(
    *,
    paper_scale: bool = False,
    names: tuple[str, ...] = ORDER,
) -> list[BenchSpec]:
    """Specs from the workload registry's default or paper sizes (the
    configurations ``repro report`` sweeps)."""
    specs = []
    for name in names:
        w = workload(name)
        params = dict(w.paper_params if paper_scale else w.default_params)
        cells = w.paper_pes if paper_scale else w.default_pes
        specs.append(BenchSpec(app=name, num_cells=cells, params=params))
    return specs
