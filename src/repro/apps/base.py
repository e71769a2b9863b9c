"""Shared application infrastructure.

Each application module exposes

* ``program(ctx, **params)`` — the SPMD generator run on every cell;
* ``reference(**params)`` — a sequential numpy computation of the same
  quantities, used to verify the parallel run;
* ``run(num_cells=..., **params, config=None, resume_from=None)`` —
  build a machine from ``config``, execute, verify, and return an
  :class:`AppRun`.

Problem sizes: ``PAPER`` configurations use the exact sizes and PE counts
of section 5.2 (they can take minutes in a pure-Python simulator);
``DEFAULT`` configurations shrink the grid/iteration counts while keeping
the communication *pattern* identical, because MLSim consumes patterns —
who communicates with whom, how often, with what message sizes — not
absolute durations.  EXPERIMENTS.md records the scaling for each app.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Callable
from typing import Any

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


def execute(name: str, program: Callable[..., Any], num_cells: int,
            verify: Callable[[list[Any], Machine], dict[str, Any]],
            *, config: MachineConfig | None = None,
            resume_from: str | None = None, **params: Any) -> AppRun:
    """Run ``program`` on a machine and verify the results.

    The machine is ``config`` (default ``MachineConfig()``) with its
    ``num_cells`` replaced by the application's: the one place every
    run setting comes from.  ``verify`` receives the per-cell results
    and the machine and returns a dict of named checks; every value must
    be truthy for the run to count as verified.

    ``resume_from`` names a snapshot (or a checkpoint directory, for its
    newest) to restore instead of building a fresh machine.  It must
    have been captured by the same application with the same cell count
    and parameters, and the run completes from the captured gate with
    the snapshot's settings (:func:`repro.ckpt.snapshot.restore_machine`
    says which of ``config``'s it takes and which it refuses).
    """
    if num_cells < 1:
        raise ConfigurationError("application needs at least one cell")
    config = replace(config or MachineConfig(), num_cells=num_cells)
    if resume_from is None:
        machine = Machine(config)
    else:
        from repro.ckpt.snapshot import load_snapshot, restore_machine

        snapshot = load_snapshot(resume_from)
        meta = snapshot.app
        if meta is None:
            raise ConfigurationError(
                f"snapshot {resume_from} carries no application "
                "identity; resume it via repro.ckpt.snapshot."
                "restore_machine and Machine.run directly")
        ours = {"workload": name, "num_cells": num_cells, "params": params}
        differs = tuple(key for key, value in ours.items()
                        if meta[key] != value)
        if differs:
            raise ConfigurationError(
                f"snapshot {resume_from} was captured by "
                f"{meta['workload']}(num_cells={meta['num_cells']}, "
                f"**{meta['params']}); refusing to resume it as "
                f"{name}(num_cells={num_cells}, **{params})",
                fields=differs)
        machine = restore_machine(snapshot, config)
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
