"""Experiment grids for the benchmark runner.

The paper's evaluation is a sweep over (application x parameter file):
each application's trace is recorded once on the functional machine and
replayed through MLSim under every parameter preset.  A grid is a list
of :class:`BenchSpec` rows (one functional run each) plus the preset
names to replay every trace under.

``repro bench run --grid NAME`` runs one of the four named grids in
:data:`GRIDS`:

* ``bench`` (:func:`bench_specs`) — the benchmark-scale configurations
  also used by ``pytest benchmarks/`` (the Table 2/3 rows at or near
  paper scale);
* ``smoke`` (:func:`smoke_specs`) — a two-app, seconds-long grid for CI
  smoke runs;
* ``micro`` (:func:`micro_specs`) — latency microbenchmarks + a small
  CG, recorded by the CI cost-table job;
* ``wide`` (:func:`wide_specs`) — Figure 8 past the paper's machine
  sizes, per-cell work held constant up to 4096 cells.

:func:`workload_specs` gives the workload registry's default or paper
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

#: Micro grid: the section 5 latency microbenchmarks at many cells —
#: long blocking chains that stress the SPMD scheduler — plus one real
#: solver whose trace is dominated by the section 5.3 replay
#: arithmetic.  Sized for seconds per run.
MICRO_CONFIGS: dict[str, dict[str, Any]] = {
    "PingPong": dict(num_cells=256, iters=1024),
    "RingShift": dict(num_cells=256, hops=2048),
    "CG": dict(num_cells=16, n=700, outer=8, inner=25),
}


#: Machine sizes of the wide grid: two official Table 1 sizes and one
#: four times the largest.
WIDE_POINTS = (256, 1024, 4096)


@dataclass(frozen=True)
class BenchSpec:
    """One functional run of the grid: an application and its config."""

    app: str
    num_cells: int
    params: dict[str, Any] = field(default_factory=dict)
    #: The row's key in the artifact: the application
    #: name, unless the grid runs the application more than once.
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", self.app)

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


def bench_specs() -> list[BenchSpec]:
    """The full benchmark grid: all eight Table 2/3 rows, in paper
    order."""
    return _specs_from(BENCH_CONFIGS)


def smoke_specs() -> list[BenchSpec]:
    """The CI smoke grid: EP + MatMul at small sizes."""
    return _specs_from(SMOKE_CONFIGS)


def micro_specs() -> list[BenchSpec]:
    """The micro grid: latency microbenchmarks + a small CG."""
    return _specs_from(MICRO_CONFIGS)


def wide_specs() -> list[BenchSpec]:
    """Figure 8 at P in :data:`WIDE_POINTS` with the per-cell problem
    held constant (weak scaling): EP at 128 pairs per cell, the
    pure-computation end of the figure, and RingShift carrying one
    token a full lap (one hop per cell), the latency-bound end.  Rows
    are named ``APP@P``."""
    return [
        BenchSpec(app=app, num_cells=cells, params=params,
                  name=f"{app}@{cells}")
        for cells in WIDE_POINTS
        for app, params in (
            ("EP", {"log2_pairs": cells.bit_length() - 1 + 7}),
            ("RingShift", {"hops": cells}),
        )
    ]


#: The named grids of ``repro bench run --grid``: each one's rows and
#: the presets it replays them under.
GRIDS = {
    "bench": (bench_specs, ALL_PRESETS),
    "smoke": (smoke_specs, SMOKE_PRESETS),
    "micro": (micro_specs, ALL_PRESETS),
    "wide": (wide_specs, ALL_PRESETS),
}

#: Every application some grid runs (``--apps`` choices).
GRID_APPS = tuple(dict.fromkeys(
    spec.app for specs, _ in GRIDS.values() for spec in specs()))


def grid_specs(grid: str, apps: tuple[str, ...] | None = None,
               ) -> list[BenchSpec]:
    """The rows of the named grid, restricted to the rows of ``apps``
    when given (grid order is preserved)."""
    specs = GRIDS[grid][0]()
    if apps is None:
        return specs
    missing = sorted(set(apps) - {s.app for s in specs})
    if missing:
        raise ConfigurationError(
            f"grid {grid!r} has no {', '.join(missing)} rows; its apps "
            f"are {list(dict.fromkeys(s.app for s in specs))}")
    return [s for s in specs if s.app in apps]


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
