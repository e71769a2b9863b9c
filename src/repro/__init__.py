"""Reproduction of "AP1000+: Architectural Support of PUT/GET Interface
for Parallelizing Compiler" (Hayashi et al., ASPLOS VI, 1994).

Layers, bottom up:

* :mod:`repro.network` — T-net torus, B-net broadcast, S-net barrier.
* :mod:`repro.hardware` — cell hardware: DRAM, MMU/TLB, write-through
  cache, communication registers, MSC+ queues/DMA, MC flag incrementer.
* :mod:`repro.machine` — the functional SPMD machine that runs programs
  and records traces.
* :mod:`repro.core` — the PUT/GET interface (the paper's contribution).
* :mod:`repro.lang` — the VPP Fortran runtime layer (distributions,
  global arrays, SPREAD MOVE, OVERLAP FIX, reductions).
* :mod:`repro.trace` — probe events, buffering, Table 3 statistics.
* :mod:`repro.mlsim` — the message level simulator (timing replay).
* :mod:`repro.apps` — EP, CG, FT, SP, TOMCATV, MatMul, SCG workloads.
* :mod:`repro.analysis` — Table/Figure generators and paper reference data.
"""

__version__ = "1.0.0"

from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.program import CellContext

__all__ = ["Machine", "MachineConfig", "CellContext", "__version__"]
