"""Shared fixtures for the checkpoint/restart suite.

Problem sizes come from ``SMOKE_RECOVER_PARAMS`` — the same tiny
configurations the CI recover sweep uses — so every golden-equivalence
case stays in the sub-second range while still crossing several
checkpoint gates.
"""

from __future__ import annotations

import pytest

from repro.apps.workloads import workload
from repro.ckpt.policy import CheckpointPolicy, applied
from repro.ckpt.snapshot import load_snapshot
from repro.faults.chaos import SMOKE_RECOVER_PARAMS


def run_small(app: str):
    """One smoke-sized run of an instrumented app (ambient policy
    decides whether it checkpoints)."""
    params = dict(SMOKE_RECOVER_PARAMS[app])
    cells = params.pop("num_cells")
    return workload(app).run(num_cells=cells, **params)


def captured_sites(machine, directory=None, key="it"):
    """Loop index (the bag's ``key``, equal on all cells) and per-cell
    site counts of every capture, oldest first."""
    if directory is None:
        snapshots = [machine.last_snapshot]
    else:
        snapshots = [load_snapshot(p) for p in sorted(directory.iterdir())
                     if p.name.startswith("ckpt_")]
    out = []
    for snap in snapshots:
        (it,) = {cell[key] for cell in snap.state["cell_states"].values()}
        out.append((it, snap.state["ckpt"]["counts"]))
    return out


@pytest.fixture(scope="session")
def matmul_snapshot_dir(tmp_path_factory):
    """A checkpoint directory holding every gate snapshot of one small
    MatMul run (periodic policy, every site)."""
    directory = tmp_path_factory.mktemp("ckpts")
    with applied(CheckpointPolicy(every=1, directory=str(directory))):
        run = run_small("MatMul")
    assert run.machine.ckpt_seq > 1  # several gates were crossed
    return directory
