"""Workload registry: the eight application rows of Tables 2/3.

Each entry couples an application module with two configurations:

* ``default`` — a scaled-down size every machine can run in seconds,
  preserving the communication pattern (same partners, same message-size
  *structure*, proportionally fewer/smaller messages);
* ``paper`` — the exact section 5.2 sizes and PE counts (minutes of
  pure-Python simulation; SP runs on 32 cells instead of 64 because a
  64-way slab split of a 64-plane grid leaves less than the width-2
  stencil halo per cell).

TOMCATV appears twice, with and without hardware stride transfer, as in
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

from repro.apps import cg, ep, ft, latency, matmul, scg, sp, tomcatv
from repro.apps.base import AppRun
from repro.core.errors import ConfigurationError
from repro.machine.config import MachineConfig


@dataclass(frozen=True)
class Workload:
    """One application row."""

    name: str
    runner: Callable[..., AppRun]
    default_pes: int
    default_params: dict[str, Any]
    paper_pes: int
    paper_params: dict[str, Any]
    language: str  # "VPP Fortran" or "C"

    def run(self, *, paper_scale: bool = False,
            num_cells: int | None = None,
            config: MachineConfig | None = None,
            resume_from: str | None = None, **overrides) -> AppRun:
        """Run the row at the default (or paper) size on a machine
        configured by ``config``; see :func:`repro.apps.base.execute`."""
        params = dict(self.paper_params if paper_scale
                      else self.default_params)
        params.update(overrides)
        cells = num_cells or (self.paper_pes if paper_scale
                              else self.default_pes)
        return self.runner(num_cells=cells, config=config,
                           resume_from=resume_from, **params)


WORKLOADS: dict[str, Workload] = {
    "EP": Workload(
        "EP", ep.run, ep.DEFAULT_PES, {"log2_pairs": ep.DEFAULT_LOG2_PAIRS},
        ep.PAPER_PES, {"log2_pairs": ep.PAPER_LOG2_PAIRS}, "VPP Fortran"),
    "CG": Workload(
        "CG", cg.run, cg.DEFAULT_PES,
        {"n": cg.DEFAULT_N, "outer": cg.DEFAULT_OUTER,
         "inner": cg.DEFAULT_INNER},
        cg.PAPER_PES,
        {"n": cg.PAPER_N, "outer": cg.PAPER_OUTER, "inner": cg.PAPER_INNER},
        "VPP Fortran"),
    "FT": Workload(
        "FT", ft.run, ft.DEFAULT_PES,
        {"shape": ft.DEFAULT_SHAPE, "iters": ft.DEFAULT_ITERS},
        ft.PAPER_PES, {"shape": ft.PAPER_SHAPE, "iters": ft.PAPER_ITERS},
        "VPP Fortran"),
    "SP": Workload(
        "SP", sp.run, sp.DEFAULT_PES,
        {"shape": sp.DEFAULT_SHAPE, "iters": sp.DEFAULT_ITERS},
        sp.PAPER_PES, {"shape": sp.PAPER_SHAPE, "iters": sp.PAPER_ITERS},
        "VPP Fortran"),
    "TC st": Workload(
        "TC st", tomcatv.run, tomcatv.DEFAULT_PES,
        {"n": tomcatv.DEFAULT_N, "iters": tomcatv.DEFAULT_ITERS,
         "use_stride": True},
        tomcatv.PAPER_PES,
        {"n": tomcatv.PAPER_N, "iters": tomcatv.PAPER_ITERS,
         "use_stride": True},
        "VPP Fortran"),
    "TC no st": Workload(
        "TC no st", tomcatv.run, tomcatv.DEFAULT_PES,
        {"n": tomcatv.DEFAULT_N, "iters": tomcatv.DEFAULT_ITERS,
         "use_stride": False},
        tomcatv.PAPER_PES,
        {"n": tomcatv.PAPER_N, "iters": tomcatv.PAPER_ITERS,
         "use_stride": False},
        "VPP Fortran"),
    "MatMul": Workload(
        "MatMul", matmul.run, matmul.DEFAULT_PES, {"n": matmul.DEFAULT_N},
        matmul.PAPER_PES, {"n": matmul.PAPER_N}, "C"),
    "SCG": Workload(
        "SCG", scg.run, scg.DEFAULT_PES, {"m": scg.DEFAULT_M},
        scg.PAPER_PES, {"m": scg.PAPER_M}, "C"),
    # Section 5 latency microbenchmarks; not Table 2/3 rows (they are
    # excluded from ORDER) but first-class workloads for the perf lane.
    "PingPong": Workload(
        "PingPong", latency.run_ping_pong, latency.DEFAULT_PES,
        {"iters": latency.DEFAULT_ITERS},
        latency.PAPER_PES, {"iters": latency.PAPER_ITERS}, "C"),
    "RingShift": Workload(
        "RingShift", latency.run_ring_shift, latency.DEFAULT_PES,
        {"hops": latency.DEFAULT_ITERS},
        latency.PAPER_PES, {"hops": latency.PAPER_ITERS}, "C"),
}

#: Paper row order (Tables 2 and 3, Figure 8).
ORDER = ("EP", "CG", "FT", "SP", "TC st", "TC no st", "MatMul", "SCG")


def workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; choose from {list(ORDER)}") from None


def run_all(*, paper_scale: bool = False,
            names: tuple[str, ...] = ORDER, **overrides) -> dict[str, AppRun]:
    """Run every workload (functional + verification); returns runs by
    name."""
    return {name: workload(name).run(paper_scale=paper_scale, **overrides)
            for name in names}
