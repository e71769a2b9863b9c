"""Shared application infrastructure.

Each application module exposes

* ``program(ctx, **params)`` — the SPMD generator run on every cell;
* ``reference(**params)`` — a sequential numpy computation of the same
  quantities, used to verify the parallel run;
* ``run(num_cells=..., **params)`` — build a machine, execute, verify,
  and return an :class:`AppRun`.

Problem sizes: ``PAPER`` configurations use the exact sizes and PE counts
of section 5.2 (they can take minutes in a pure-Python simulator);
``DEFAULT`` configurations shrink the grid/iteration counts while keeping
the communication *pattern* identical, because MLSim consumes patterns —
who communicates with whom, how often, with what message sizes — not
absolute durations.  EXPERIMENTS.md records the scaling for each app.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from repro.ckpt import policy as _ckpt_policy
from repro.core.errors import ConfigurationError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.buffer import TraceBuffer
from repro.trace.stats import AppStatistics, collect_statistics


@dataclass
class AppRun:
    """Outcome of one functional application run."""

    name: str
    machine: Machine
    results: list[Any]
    verified: bool
    checks: dict[str, Any] = field(default_factory=dict)

    @property
    def trace(self) -> TraceBuffer:
        return self.machine.trace

    @property
    def statistics(self) -> AppStatistics:
        return collect_statistics(self.trace)


def execute(name: str, program: Callable, num_cells: int,
            verify: Callable[[list[Any], Machine], dict[str, Any]],
            *, memory_per_cell: int | None = None,
            trace_capacity: int | None = None,
            **params) -> AppRun:
    """Run ``program`` on a fresh machine and verify the results.

    ``verify`` receives the per-cell results and the machine and returns a
    dict of named checks; every value must be truthy for the run to count
    as verified.

    When the ambient checkpoint policy names a ``resume_from`` snapshot,
    the machine is restored from it instead of built fresh (the snapshot
    must have been captured by the same application with the same cell
    count and parameters), and the run completes from the captured gate.
    """
    if num_cells < 1:
        raise ConfigurationError("application needs at least one cell")
    policy = _ckpt_policy.active_policy()
    if policy is not None and policy.resume_from is not None:
        from repro.ckpt.snapshot import load_snapshot, restore_machine

        snapshot = load_snapshot(policy.resume_from)
        meta = snapshot.header.get("app")
        if meta is None:
            raise ConfigurationError(
                f"snapshot {policy.resume_from} carries no application "
                "identity; resume it via repro.ckpt.snapshot."
                "restore_machine and Machine.run directly")
        if (meta["workload"] != name or meta["num_cells"] != num_cells
                or meta["params"] != params):
            raise ConfigurationError(
                f"snapshot {policy.resume_from} was captured by "
                f"{meta['workload']}(num_cells={meta['num_cells']}, "
                f"**{meta['params']}); refusing to resume it as "
                f"{name}(num_cells={num_cells}, **{params})")
        machine = restore_machine(snapshot)
    else:
        kwargs: dict[str, Any] = {"num_cells": num_cells}
        if memory_per_cell is not None:
            kwargs["memory_per_cell"] = memory_per_cell
        if trace_capacity is not None:
            kwargs["trace_capacity"] = trace_capacity
        machine = Machine(MachineConfig(**kwargs))
    machine.ckpt_meta = {"workload": name, "num_cells": num_cells,
                         "params": dict(params)}
    results = machine.run(program, **params)
    checks = verify(results, machine)
    return AppRun(
        name=name,
        machine=machine,
        results=results,
        verified=all(bool(v) for v in checks.values()),
        checks=checks,
    )
