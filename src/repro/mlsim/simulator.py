"""High-level MLSim interface.

Typical use, mirroring the paper's methodology end to end::

    machine = Machine(MachineConfig(num_cells=16))
    machine.run(my_program)                    # functional run -> trace
    outcome = simulate_models(machine.trace)   # timing replay x3 models
    print(outcome.table2_row())                # speedups vs the AP1000
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mlsim.breakdown import MLSimResult
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import (
    MLSimParams,
    ap1000_fast_params,
    ap1000_params,
    ap1000_plus_params,
)
from repro.network.topology import TorusTopology
from repro.trace.buffer import TraceBuffer
from repro.trace.soa import columns_from_buffer


def simulate(trace: TraceBuffer, params: MLSimParams,
             topology: TorusTopology | None = None, *,
             link_contention: bool = False,
             collect_metrics: bool = False) -> MLSimResult:
    """Replay ``trace`` under ``params`` and return the time breakdown.

    ``link_contention`` enables the optional shared-link serialization
    model (an extension beyond the paper's MLSim, which models the
    network purely with delay parameters).  ``collect_metrics`` attaches
    the :mod:`repro.obs` replay metric document (wait-latency
    histograms, per-link utilization, DMA busy time) to the result.

    There is one engine, :func:`repro.mlsim.engine_soa.replay_columns`;
    this is its front door for a recorded :class:`TraceBuffer` (a trace
    *file* goes through :func:`repro.trace.io.load_trace_columns`
    instead and builds no event).  Timeline recording, its third
    option, enters through :func:`repro.obs.export.replay_with_timeline`.
    """
    trace.coalesce_compute()
    return replay_columns(columns_from_buffer(trace), params, topology,
                          link_contention=link_contention,
                          collect_metrics=collect_metrics)


@dataclass(frozen=True)
class ModelComparison:
    """The three machine models of section 5.3 run on one trace."""

    ap1000: MLSimResult
    ap1000_fast: MLSimResult   # "AP1000 with SPARC replaced by SuperSPARC"
    ap1000_plus: MLSimResult

    def table2_row(self) -> tuple[float, float]:
        """(AP1000+ speedup, software-model speedup), both vs the AP1000."""
        return (
            self.ap1000_plus.speedup_over(self.ap1000),
            self.ap1000_fast.speedup_over(self.ap1000),
        )

    def figure8_bars(self) -> dict[str, dict[str, float]]:
        """Figure 8: both fast models' breakdowns normalized so the
        AP1000+ total is 100%."""
        return {
            "AP1000+": self.ap1000_plus.normalized_to(self.ap1000_plus),
            "AP1000/SuperSPARC":
                self.ap1000_fast.normalized_to(self.ap1000_plus),
        }


def simulate_models(trace: TraceBuffer,
                    topology: TorusTopology | None = None) -> ModelComparison:
    """Run all three of the paper's machine models on one trace."""
    return ModelComparison(
        ap1000=simulate(trace, ap1000_params(), topology),
        ap1000_fast=simulate(trace, ap1000_fast_params(), topology),
        ap1000_plus=simulate(trace, ap1000_plus_params(), topology),
    )
