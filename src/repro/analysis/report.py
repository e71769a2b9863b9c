"""End-to-end experiment driver.

``run_experiments`` executes the paper's whole evaluation: run every
workload functionally (with numerical verification), replay each trace
under the three machine models, and assemble Tables 2/3 and Figure 8.
``repro report`` prints the full report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.figures import figure7_text, figure8_bars, render_figure8
from repro.analysis.tables import (
    format_table2,
    format_table3,
    table1_text,
    table2_rows,
    table3_rows,
)
from repro.apps.workloads import ORDER
from repro.bench.grid import ALL_PRESETS, workload_specs
from repro.bench.runner import run_bench
from repro.mlsim.simulator import ModelComparison, simulate_models


@dataclass
class ExperimentReport:
    """Everything the evaluation section produces.

    ``runs`` maps application name to a run record — a real
    ``repro.apps.base.AppRun`` or the cache-backed equivalent the bench
    runner returns (same ``verified``/``checks``/``statistics``/
    ``trace`` surface).
    """

    runs: dict[str, object]
    comparisons: dict[str, ModelComparison] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.comparisons:
            self.comparisons = {
                name: simulate_models(run.trace)
                for name, run in self.runs.items()
            }

    @property
    def all_verified(self) -> bool:
        return all(run.verified for run in self.runs.values())

    def table2(self):
        return table2_rows(self.comparisons)

    def table3(self):
        return table3_rows(self.runs)

    def figure8(self):
        return figure8_bars(self.comparisons)

    def render(self) -> str:
        sections = [
            "AP1000+ reproduction — full evaluation",
            "=" * 48,
            "",
            "Table 1: AP1000+ specifications",
            table1_text(),
            "",
            figure7_text(),
            "",
            format_table2(self.table2()),
            "",
            format_table3(self.table3()),
            "",
            render_figure8(self.figure8()),
            "",
            "Functional verification: " + (
                "ALL PASSED" if self.all_verified
                else "FAILURES: " + ", ".join(
                    name for name, run in self.runs.items()
                    if not run.verified)),
        ]
        return "\n".join(sections)


def run_experiments(*, paper_scale: bool = False,
                    names: tuple[str, ...] = ORDER,
                    jobs: int = 1) -> ExperimentReport:
    """Run the full evaluation pipeline.

    The sweep goes through the bench runner (``repro.bench.runner``), so
    ``jobs`` > 1 fans the functional runs and MLSim replays out across
    worker processes; the resulting tables are identical either way.
    """
    outcome = run_bench(
        workload_specs(paper_scale=paper_scale, names=names),
        ALL_PRESETS,
        jobs=jobs,
        use_cache=False,
        grid_name="paper" if paper_scale else "default",
    )
    return ExperimentReport(runs=outcome.runs,
                            comparisons=outcome.comparisons)
