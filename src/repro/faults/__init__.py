"""Fault injection, reliable delivery, and chaos testing for the fabric.

Layers (bottom up):

* :mod:`repro.faults.plan` — declarative, seeded :class:`FaultPlan`
  schedules (what goes wrong, and the recovery budget);
* :mod:`repro.faults.injector` — :class:`FaultyTNet` / :class:`FaultyBNet`
  wire wrappers that misbehave on schedule;
* :mod:`repro.faults.transport` — :class:`ReliableTransport`, the
  sequence-number/checksum/ack/retransmit layer that makes the faulty
  wire deliver exactly-once, in per-flow order, or fail loudly;
* :mod:`repro.faults.chaos` — the sweep harness behind ``repro chaos``
  (imported lazily by the CLI, not here: chaos pulls in the application
  suite, which would cycle back into the machine).
"""

from repro.faults.injector import FaultStats, FaultyBNet, FaultyTNet
from repro.faults.plan import (
    FaultPlan,
    KillSpec,
    active_plan,
    applied,
    full_plans,
    smoke_plans,
)
from repro.faults.transport import ReliableTransport

__all__ = [
    "FaultPlan",
    "KillSpec",
    "active_plan",
    "applied",
    "full_plans",
    "smoke_plans",
    "FaultStats",
    "FaultyTNet",
    "FaultyBNet",
    "ReliableTransport",
]
