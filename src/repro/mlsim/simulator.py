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
from repro.mlsim.engine import MLSimEngine
from repro.mlsim.params import (
    MLSimParams,
    ap1000_fast_params,
    ap1000_params,
    ap1000_plus_params,
)
from repro.network.topology import TorusTopology
from repro.trace.buffer import TraceBuffer


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

    The engine follows from the arguments: the scalar
    :class:`MLSimEngine` is the only one that models link contention, so
    it runs exactly when ``link_contention`` is set; everything else runs
    on the structure-of-arrays engine (:mod:`repro.mlsim.engine_soa`),
    which is bit-identical to it and ~10x faster.  Timeline recording,
    the scalar engine's other job, enters through
    :func:`repro.obs.export.replay_with_timeline`.
    """
    trace.coalesce_compute()
    if link_contention:
        return MLSimEngine(trace, params, topology, link_contention=True,
                           collect_metrics=collect_metrics).run()
    from repro.mlsim.engine_soa import replay_columns
    from repro.trace.soa import columns_from_buffer
    return replay_columns(columns_from_buffer(trace), params, topology,
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
