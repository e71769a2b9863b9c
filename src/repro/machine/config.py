"""Machine configurations (Table 1).

===========================  =========================================
Processor                    SuperSPARC (50 MHz)
Processor performance        50 MFLOPS
Memory per cell              16, 64 megabytes
Cache per cell               36 kilobytes, write-through
System configuration         4 - 1024 cells
System performance           0.2 - 51.2 GFLOPS
===========================  =========================================

The same chassis also describes the predecessor AP1000 (25 MHz SPARC with
software message handling); MLSim distinguishes the two via its parameter
file, but the functional machine needs processor constants for converting
operation counts into trace work.

A ``MachineConfig`` is the only way a run setting reaches a machine:
application entry points take one (``Workload.run(config=...)``) and
:class:`~repro.machine.machine.Machine` reads every setting from it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import ConfigurationError
from repro.trace.buffer import DEFAULT_CAPACITY

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

MEGABYTE = 1024 * 1024

#: Official cell-count range of the product (Table 1).
MIN_CELLS = 4
MAX_CELLS = 1024
#: Official memory options per cell.
MEMORY_OPTIONS = (16 * MEGABYTE, 64 * MEGABYTE)

#: Peak floating-point performance per cell (SuperSPARC, Table 1).
PEAK_MFLOPS_PER_CELL = 50.0

#: Work unit conversion: microseconds of base-SPARC time per floating-point
#: operation.  The paper takes the SuperSPARC to be 8x the SPARC, so with
#: MLSim's AP1000+ ``computation_factor`` of 0.125 this constant yields
#: 1/0.16/0.125 = 50 MFLOPS on the AP1000+ and 6.25 MFLOPS on the AP1000.
SPARC_US_PER_FLOP = 0.16


@dataclass(frozen=True)
class MachineConfig:
    """Static configuration of a functional machine instance."""

    num_cells: int = 64
    memory_per_cell: int = 16 * MEGABYTE
    clock_mhz: float = 50.0
    cache_bytes: int = 36 * 1024
    trace_capacity: int = DEFAULT_CAPACITY
    #: Permit cell counts / memory sizes outside the product catalogue
    #: (handy for tests); official configurations leave this False.
    allow_nonstandard: bool = field(default=True)
    #: Annotate communication events with byte-range footprints for the
    #: race checker (:mod:`repro.check`): ``repro check`` and the trace
    #: cache record with it on, so cached traces are always checkable.
    sanitize: bool = False
    #: Attach the :mod:`repro.obs` machine observer (per-link traffic
    #: accounting and queue-occupancy sampling).
    observe: bool = False
    #: Seeded fault-injection schedule (:mod:`repro.faults`); None runs a
    #: perfect machine.
    fault_plan: "FaultPlan | None" = None
    #: Arm a periodic checkpoint gate: every cell parks at its N-th
    #: arrival at a ``ctx.checkpoint()`` site and a snapshot is captured
    #: once all are parked (:mod:`repro.ckpt`).
    checkpoint_every: int | None = None
    #: Arm a one-shot gate at exactly this site count instead (``repro
    #: chaos --recover`` picks its kill point with it).
    checkpoint_at_site: int | None = None
    #: Raise :class:`~repro.core.errors.CheckpointInterrupt` right after
    #: a capture: a crash at the checkpoint boundary.
    stop_after_checkpoint: bool = False
    #: Directory snapshots are written to; None keeps captures in
    #: memory only (``machine.last_snapshot``).
    checkpoint_dir: str | None = None
    #: Worker-process count; > 1 runs the sharded multiprocess engine
    #: (:mod:`repro.machine.sharded`) when the run is eligible for it —
    #: ``Machine.run`` decides and records the outcome as
    #: ``machine.engine``.  0 resolves from the ``REPRO_MACHINE_SHARDS``
    #: environment variable (default 1; the benchmark's shard probe sets
    #: it), so an explicit 1 pins the serial engine whatever the
    #: environment says.
    shards: int = 0

    def __post_init__(self) -> None:
        if self.shards == 0:
            object.__setattr__(
                self, "shards",
                int(os.environ.get("REPRO_MACHINE_SHARDS", 1)))
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}")
        if self.num_cells < 1:
            raise ConfigurationError("a machine needs at least one cell")
        if self.shards > self.num_cells:
            raise ConfigurationError(
                f"cannot split {self.num_cells} cells across "
                f"{self.shards} shards")
        for name in ("checkpoint_every", "checkpoint_at_site"):
            sites = getattr(self, name)
            if sites is not None and sites < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1 site, got {sites}")
        if self.memory_per_cell < 1024:
            raise ConfigurationError("cell memory unrealistically small")
        if not self.allow_nonstandard:
            if not MIN_CELLS <= self.num_cells <= MAX_CELLS:
                raise ConfigurationError(
                    f"official configurations have {MIN_CELLS}-{MAX_CELLS} "
                    f"cells, got {self.num_cells}")
            if self.memory_per_cell not in MEMORY_OPTIONS:
                raise ConfigurationError(
                    f"official memory options are 16 or 64 MB per cell, got "
                    f"{self.memory_per_cell} bytes")

    @property
    def peak_mflops_per_cell(self) -> float:
        return PEAK_MFLOPS_PER_CELL * (self.clock_mhz / 50.0)

    @property
    def system_performance_gflops(self) -> float:
        """Peak system performance; 0.2 GFLOPS at 4 cells, 51.2 at 1024."""
        return self.num_cells * self.peak_mflops_per_cell / 1000.0

    @classmethod
    def official(cls, num_cells: int,
                 memory_per_cell: int = 16 * MEGABYTE) -> "MachineConfig":
        """An as-shipped configuration, validated against Table 1."""
        return cls(num_cells=num_cells, memory_per_cell=memory_per_cell,
                   allow_nonstandard=False)
