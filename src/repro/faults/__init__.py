"""Fault injection, reliable delivery, and chaos testing for the fabric.

Layers (bottom up):

* :mod:`repro.faults.plan` — declarative, seeded :class:`FaultPlan`
  schedules (what goes wrong, and the recovery budget);
* :mod:`repro.faults.injector` — :class:`FaultyTNet` / :class:`FaultyBNet`
  wire wrappers that misbehave on schedule;
* :mod:`repro.faults.transport` — :class:`ReliableTransport`, the
  sequence-number/checksum/ack/retransmit layer that makes the faulty
  wire deliver exactly-once, in per-flow order, or fail loudly;
* :mod:`repro.faults.chaos` — the sweep harness behind ``repro chaos``.

A machine imports the injector and the transport only when it is built
under a plan: a perfect machine never loads them.
"""
