"""MLSim result types: per-PE time breakdown in the paper's four buckets.

Section 5.3 defines the buckets exactly:

* **Execution time** — processor execution time, excluding run-time
  system time, library overhead, and idle time.
* **Run-time system** — time for the VPP Fortran run-time system to
  calculate addresses for PUT/GET operations, find stride patterns, etc.
* **Overhead** — time spent executing communication library routines,
  excluding idle time; processor execution is blocked meanwhile.
* **Idle time** — waiting for messages in RECEIVE, waiting for flag
  updates in flag checks, and waiting for barrier establishment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import SimulationError


@dataclass
class PEBreakdown:
    """Accumulated time buckets of one processing element (microseconds)."""

    execution: float = 0.0
    rtsys: float = 0.0
    overhead: float = 0.0
    idle: float = 0.0
    clock: float = 0.0

    @property
    def accounted(self) -> float:
        return self.execution + self.rtsys + self.overhead + self.idle


@dataclass
class MLSimResult:
    """Outcome of replaying one trace under one parameter set."""

    model_name: str
    per_pe: list[PEBreakdown] = field(default_factory=list)
    messages: int = 0
    bytes_on_wire: int = 0
    #: Replay metric document (repro.obs); None unless the engine ran
    #: with ``collect_metrics=True``.
    metrics: dict[str, Any] | None = None
    #: The span / flow / mark log (:class:`repro.mlsim.timeline.Timeline`);
    #: None unless the engine ran with ``record_timeline=True``.
    timeline: Any | None = field(default=None, repr=False, compare=False)

    @property
    def num_pes(self) -> int:
        return len(self.per_pe)

    @property
    def elapsed_us(self) -> float:
        """Makespan: the last PE's finishing time."""
        return max((pe.clock for pe in self.per_pe), default=0.0)

    def _mean(self, attr: str) -> float:
        if not self.per_pe:
            return 0.0
        return sum(getattr(pe, attr) for pe in self.per_pe) / len(self.per_pe)

    @property
    def mean_execution(self) -> float:
        return self._mean("execution")

    @property
    def mean_rtsys(self) -> float:
        return self._mean("rtsys")

    @property
    def mean_overhead(self) -> float:
        return self._mean("overhead")

    @property
    def mean_idle(self) -> float:
        return self._mean("idle")

    @property
    def mean_total(self) -> float:
        return self._mean("accounted")

    def breakdown_fractions(self) -> dict[str, float]:
        """Mean bucket shares of the mean total (sums to 1)."""
        total = self.mean_total or 1.0
        return {
            "execution": self.mean_execution / total,
            "rtsys": self.mean_rtsys / total,
            "overhead": self.mean_overhead / total,
            "idle": self.mean_idle / total,
        }

    def normalized_to(self, baseline: "MLSimResult") -> dict[str, float]:
        """Figure 8 numbers: this model's mean buckets as percentages of
        the baseline's (the AP1000+'s) mean total time."""
        base = baseline.mean_total or 1.0
        return {
            "execution": 100.0 * self.mean_execution / base,
            "rtsys": 100.0 * self.mean_rtsys / base,
            "overhead": 100.0 * self.mean_overhead / base,
            "idle": 100.0 * self.mean_idle / base,
            "total": 100.0 * self.mean_total / base,
        }

    def speedup_over(self, baseline: "MLSimResult") -> float:
        """Table 2 numbers: baseline elapsed / this model's elapsed."""
        if self.elapsed_us == 0:
            raise SimulationError(
                f"model {self.model_name!r} has zero elapsed time; speedup "
                "is undefined (empty or compute-free trace)")
        return baseline.elapsed_us / self.elapsed_us
