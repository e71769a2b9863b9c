"""Versioned machine snapshots: capture, save, load, restore.

A snapshot is taken at a *checkpoint gate*: every live cell program is
parked inside ``ctx.checkpoint()`` (a cooperative safe point the
application reaches between communication phases) and the machine has
been pumped to reliable quiescence, so no T-net/B-net frame is in
flight, every command queue is drained, and every retransmit buffer's
content is explicit transport state.  What remains is a finite, fully
enumerable machine state:

* the used regions of every cell's DRAM (heap below, private area
  above — the untouched middle is zero by construction and not stored);
* the per-cell cooperative program state (the picklable ``st`` bag each
  checkpointable app keeps its loop-carried values in);
* each cell context's, hardware cell's, ring buffer's and network's own
  ``state()`` (:mod:`repro.core.state`: every attribute that is not
  wiring), plus barrier and reduction generations;
* fault machinery: the plan RNG stream, injected-fault schedule, the
  killed set, and the reliable transport's per-flow seq/ack/retry/
  reorder state;
* the whole trace buffer (the high-water mark of the recorded run).

The artifact is a directory written atomically (temp dir +
``os.replace``)::

    ckpt_000001/
        header.json     # schema, config, config/code hashes, app meta
        state.pkl       # everything above except raw memory bytes
        memories.npz    # per-cell used DRAM regions

``header.json`` carries ``schema: repro-ckpt-v1`` plus the machine
config the run was given, a hash of it, and the repo code-version hash
— the same refuse-loudly pattern as ``repro-check-v1``: a snapshot from
different code or a different config never restores silently.

Restore builds a *fresh* machine from the header config and replays the
state onto it.  Generator frames cannot be pickled, so cell programs
re-run their prologue (allocations land at identical addresses because
the allocators are restarted at their initial values) and then jump to
the parked loop position recorded in ``st`` — see
:meth:`repro.machine.program.CellContext.ckpt_state`.  The completed
run is byte-identical (trace, results, memory) to the uninterrupted run
under the same checkpoint schedule.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.completion import AckPolicy
from repro.core.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

#: Artifact schema stamped into every snapshot header.
SCHEMA = "repro-ckpt-v1"
#: Schema versions this loader understands.
KNOWN_CKPT_SCHEMAS = frozenset({SCHEMA})

HEADER_NAME = "header.json"
STATE_NAME = "state.pkl"
MEMORY_NAME = "memories.npz"
#: Directory-name prefixes: resumable gate snapshots vs. watchdog dumps.
SNAPSHOT_PREFIX = "ckpt_"
HANG_PREFIX = "hang_"

#: The workloads whose cell programs declare checkpoint safe points
#: (``ctx.ckpt_state`` + ``ctx.checkpoint``).  ``repro chaos --recover``
#: and the roundtrip suite iterate exactly these.
CKPT_APPS = ("MatMul", "CG", "RingShift")


def _code_version() -> str:
    # Lazy: repro.bench imports reach back into machine/trace modules.
    from repro.bench.cache import code_version

    return code_version()


#: ``MachineConfig`` fields that are not a snapshot's identity: how a
#: run checkpoints (the captured schedule lives in the snapshot *state*:
#: counts and threshold), which engine it takes, and whether it is
#: observed.  A resumed run takes these from its own config and every
#: other field from the snapshot.
_NOT_IDENTITY = frozenset(
    {"checkpoint_every", "checkpoint_at_site", "stop_after_checkpoint",
     "checkpoint_dir", "shards", "observe"})


def config_document(config: MachineConfig,
                    ack_policy: str = AckPolicy.EVERY_PUT) -> dict[str, Any]:
    """The configuration a snapshot is bound to: every ``MachineConfig``
    field but :data:`_NOT_IDENTITY` (the fault plan as its dict), plus
    the ack policy."""
    document = {f.name: getattr(config, f.name)
                for f in dataclasses.fields(config)
                if f.name not in _NOT_IDENTITY}
    if config.fault_plan is not None:
        document["fault_plan"] = config.fault_plan.to_dict()
    document["ack_policy"] = ack_policy
    return document


def config_hash(document: dict[str, Any]) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class MachineSnapshot:
    """One captured machine state: header + state dict + memory images."""

    header: dict[str, Any]
    state: dict[str, Any]
    memories: dict[str, np.ndarray]

    @property
    def seq(self) -> int:
        return int(self.header["ckpt_seq"])

    @property
    def resumable(self) -> bool:
        return bool(self.header.get("resumable"))

    @property
    def app(self) -> dict[str, Any] | None:
        return self.header.get("app")


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------

def _refuse(reason: str) -> None:
    raise ConfigurationError(f"cannot capture resumable snapshot: {reason}")


def _check_resumable(machine: "Machine") -> None:
    """Everything a byte-exact restore depends on, verified loudly."""
    if machine.obs is not None:
        _refuse("the machine observer holds unserializable telemetry "
                "state; checkpoint with observe off")
    if machine._scratch is not None:
        _refuse("remote-access scratch buffers were allocated lazily; "
                "the restored prologue could not reproduce the heap")
    generators = machine._active_generators
    if generators is None:
        _refuse("no run in progress (snapshots are taken at checkpoint "
                "gates inside Machine.run)")
    parked = machine._gate_parked
    missing = [pe for pe in generators if pe not in parked]
    if missing:
        _refuse(f"cells {missing[:8]} are not parked at a checkpoint gate")
    if machine._finished_cells:
        _refuse(f"cells {sorted(machine._finished_cells)[:8]} already "
                "finished; their results only exist in the running "
                "scheduler frame")
    if machine.blocked:
        _refuse(f"cells {sorted(machine.blocked)[:8]} are inside "
                "blocking waits")
    contexts = machine._active_contexts
    assert contexts is not None
    for pe in generators:
        ctx = contexts[pe]
        if getattr(ctx, "_ckpt_st", None) is None:
            _refuse(f"cell {pe}'s program declared no checkpoint state "
                    "(ctx.ckpt_state)")
        if ctx._wt_table is not None:
            _refuse(f"cell {pe} holds write-through page bindings")
    if machine.transport is not None and not machine.transport.idle():
        _refuse("reliable transport has unacknowledged frames after pump")
    if machine.tnet.injected_count != machine.tnet.delivered_count:
        _refuse("T-net frames still in flight after pump")
    for pe, cell in enumerate(machine.hw_cells):
        if cell.msc.queued_words():
            _refuse(f"cell {pe}'s MSC+ queues are not drained")
        if cell.msc._load_replies:
            _refuse(f"cell {pe} holds unconsumed remote-load replies")


def capture_snapshot(machine: "Machine", *,
                     resumable: bool = True) -> MachineSnapshot:
    """Capture the machine parked at a checkpoint gate.

    With ``resumable=False`` (the watchdog's snapshot-on-deadlock dump)
    the gate preconditions are skipped and the machine is *not* pumped:
    cells may be mid-wait and in-flight state is captured as-is for
    inspection; the loader refuses to restore such a snapshot.
    """
    if resumable:
        machine.pump()
        _check_resumable(machine)
    document = config_document(machine.config, machine.ack_policy)
    header: dict[str, Any] = {
        "schema": SCHEMA,
        "code_version": _code_version(),
        "config": document,
        "config_hash": config_hash(document),
        "ckpt_seq": machine.ckpt_seq,
        "resumable": bool(resumable),
        "app": machine.ckpt_meta,
    }

    contexts = machine._active_contexts or []
    cell_states: dict[int, dict[str, Any]] = {}
    ctx_states: dict[int, dict[str, Any]] = {}
    for pe, ctx in enumerate(contexts):
        st = getattr(ctx, "_ckpt_st", None)
        if st is not None:
            cell_states[pe] = st.capture()
        ctx_states[pe] = ctx.state()

    state: dict[str, Any] = {
        "progress": machine.progress,
        "killed": sorted(machine.killed),
        "heap_next": list(machine._heap_next),
        "private_next": list(machine._private_next),
        "ckpt": {
            "counts": list(machine._ckpt_counts),
            "threshold": machine._ckpt_threshold,
            "every": machine._ckpt_every,
            "seq": machine.ckpt_seq,
        },
        "trace": machine.trace,
        # Each part says its own state (repro.core.state).  Empty wire
        # and queues at a resumable gate (pump drained everything); a
        # watchdog dump keeps the wedged frames for inspection.
        "snet": machine.snet.state(),
        "bnet": machine.bnet.state(),
        "tnet": machine.tnet.state(),
        "fault_rng": (machine.fault_rng.getstate()
                      if machine.fault_rng is not None else None),
        "transport": (machine.transport.state()
                      if machine.transport is not None else None),
        "barriers": copy.deepcopy(machine._barriers),
        "reductions": copy.deepcopy(machine._reductions),
        "cells": [cell.state() for cell in machine.hw_cells],
        "rings": [ring.state() for ring in machine.rings],
        "cell_states": cell_states,
        "ctx": ctx_states,
    }

    memories: dict[str, np.ndarray] = {}
    for pe, cell in enumerate(machine.hw_cells):
        buf = cell.memory.buffer
        memories[f"lo{pe}"] = np.array(buf[: machine._heap_next[pe]],
                                       copy=True)
        hi = buf[machine._private_next[pe]:]
        if hi.size:
            memories[f"hi{pe}"] = np.array(hi, copy=True)

    return MachineSnapshot(header=header, state=state, memories=memories)


# ----------------------------------------------------------------------
# Save / load
# ----------------------------------------------------------------------

def save_snapshot(snapshot: MachineSnapshot,
                  directory: str | Path) -> Path:
    """Write a snapshot directory atomically; returns its path.

    The artifact is staged in a temp dir next to the target and renamed
    into place, so a kill mid-write leaves no half-snapshot a later
    resume could trip over.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    prefix = SNAPSHOT_PREFIX if snapshot.resumable else HANG_PREFIX
    final = directory / f"{prefix}{snapshot.seq:06d}"
    staging = Path(tempfile.mkdtemp(prefix=f".{final.name}.tmp",
                                    dir=directory))
    try:
        (staging / HEADER_NAME).write_text(
            json.dumps(snapshot.header, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        with open(staging / STATE_NAME, "wb") as fh:
            pickle.dump(snapshot.state, fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        np.savez(staging / MEMORY_NAME, **snapshot.memories)
        if final.exists():
            shutil.rmtree(final)
        os.replace(staging, final)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return final


def latest_snapshot(directory: str | Path) -> Path | None:
    """The newest resumable snapshot in a checkpoint directory."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(
        p for p in directory.iterdir()
        if p.name.startswith(SNAPSHOT_PREFIX) and (p / HEADER_NAME).is_file()
    )
    return candidates[-1] if candidates else None


def load_snapshot(path: str | Path) -> MachineSnapshot:
    """Load one snapshot; ``path`` may also be a checkpoint directory,
    in which case the newest resumable snapshot is picked."""
    path = Path(path)
    if not (path / HEADER_NAME).is_file():
        newest = latest_snapshot(path)
        if newest is None:
            raise ConfigurationError(
                f"no checkpoint snapshot found at {path}")
        path = newest
    header = json.loads((path / HEADER_NAME).read_text(encoding="utf-8"))
    schema = header.get("schema")
    if schema not in KNOWN_CKPT_SCHEMAS:
        raise ConfigurationError(
            f"snapshot {path} declares schema {schema!r}; this build "
            f"understands {sorted(KNOWN_CKPT_SCHEMAS)} — refusing to "
            "guess at an incompatible layout")
    recomputed = config_hash(header.get("config", {}))
    if recomputed != header.get("config_hash"):
        raise ConfigurationError(
            f"snapshot {path} is corrupt: header config hash "
            f"{header.get('config_hash')!r} does not match its own "
            f"config document ({recomputed!r})")
    with open(path / STATE_NAME, "rb") as fh:
        state = pickle.load(fh)
    with np.load(path / MEMORY_NAME, allow_pickle=False) as data:
        memories = {key: np.array(data[key]) for key in data.files}
    return MachineSnapshot(header=header, state=state, memories=memories)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------

def _config_from_document(document: dict[str, Any]) -> MachineConfig:
    fields = {name: value for name, value in document.items()
              if name != "ack_policy"}
    if fields["fault_plan"] is not None:
        fields["fault_plan"] = FaultPlan.from_dict(fields["fault_plan"])
    return MachineConfig(**fields)


def _resumed_config(document: dict[str, Any],
                    config: MachineConfig | None) -> MachineConfig:
    """The snapshot's identity fields with ``config``'s
    :data:`_NOT_IDENTITY` ones.  A field of the identity that ``config``
    states (moves off its default; ``num_cells`` aside, the workload
    check compares it) cannot be honoured, so it is refused by name."""
    restored = _config_from_document(document)
    if config is None:
        return restored
    default = MachineConfig()
    stated = tuple(
        f.name for f in dataclasses.fields(config)
        if f.name not in _NOT_IDENTITY and f.name != "num_cells"
        and getattr(config, f.name) != getattr(default, f.name))
    if stated:
        raise ConfigurationError(
            f"a resumed run keeps its snapshot's {', '.join(stated)}; "
            "leave it at its default or start a fresh run", fields=stated)
    if config.observe:
        raise ConfigurationError(
            "cannot resume with observe on: a snapshot carries no "
            "telemetry state, so the observer would see only the run's "
            "tail; resume with observe off", fields=("observe",))
    return dataclasses.replace(
        restored, **{name: getattr(config, name) for name in _NOT_IDENTITY})


def restore_machine(snapshot: MachineSnapshot | str | Path,
                    config: MachineConfig | None = None) -> "Machine":
    """Build a machine whose next ``run()`` continues the snapshot.

    The caller runs the *same program with the same parameters* on the
    returned machine; the header's ``app`` block records which (see
    :func:`resume_workload` for the turnkey path).  The snapshot's
    settings are the run's: ``config`` may state only how the resumed
    run checkpoints, its shard count and ``observe`` (which is refused).
    With no cadence stated the captured checkpoint schedule continues; a
    stated ``checkpoint_every`` counts from the sites already passed.
    """
    from repro.machine.machine import Machine

    if not isinstance(snapshot, MachineSnapshot):
        snapshot = load_snapshot(snapshot)
    header = snapshot.header
    if not snapshot.resumable:
        raise ConfigurationError(
            "this snapshot is a watchdog deadlock dump (resumable: "
            "false); it is for inspection, not restart")
    current = _code_version()
    if header.get("code_version") != current:
        raise ConfigurationError(
            f"snapshot was written by code version "
            f"{str(header.get('code_version'))[:12]}… but this tree is "
            f"{current[:12]}…; byte-exact replay is not guaranteed "
            "across code changes — re-run from scratch")
    document = header["config"]
    machine = Machine(_resumed_config(document, config),
                      ack_policy=document["ack_policy"])

    state = snapshot.state
    for pe, cell in enumerate(machine.hw_cells):
        buf = cell.memory.buffer
        lo = snapshot.memories[f"lo{pe}"]
        buf[: lo.size] = lo
        hi = snapshot.memories.get(f"hi{pe}")
        if hi is not None and hi.size:
            buf[buf.size - hi.size:] = hi
    # _heap_next/_private_next stay at their fresh initial values: the
    # restored prologue re-runs its allocations and must land on the
    # captured addresses (the all-allocations-in-prologue contract).

    machine.progress = state["progress"]
    machine.killed = set(state["killed"])

    ckpt = state["ckpt"]
    machine._ckpt_counts[:] = ckpt["counts"]
    machine.ckpt_seq = ckpt["seq"]
    if machine._ckpt_threshold is None:
        machine._ckpt_threshold = ckpt["threshold"]
        machine._ckpt_every = ckpt["every"]
    elif machine.config.checkpoint_at_site is None:
        machine._ckpt_threshold = (max(ckpt["counts"], default=0)
                                   + machine._ckpt_every)

    machine.trace = state["trace"]
    machine.snet.load_state(state["snet"])
    machine.bnet.load_state(state["bnet"])
    machine.tnet.load_state(state["tnet"])
    if state["fault_rng"] is not None and machine.fault_rng is not None:
        machine.fault_rng.setstate(state["fault_rng"])
    if state["transport"] is not None and machine.transport is not None:
        machine.transport.load_state(state["transport"])
    machine._barriers = copy.deepcopy(state["barriers"])
    machine._reductions = copy.deepcopy(state["reductions"])
    for cell, saved in zip(machine.hw_cells, state["cells"]):
        cell.load_state(saved)
    for ring, saved in zip(machine.rings, state["rings"]):
        ring.load_state(saved)

    machine._restore_states = dict(state["cell_states"])
    machine._restore_ctx = dict(state["ctx"])
    machine._restore_killed = set(state["killed"])
    return machine


def resume_workload(path: str | Path):
    """Restore a snapshot and run its recorded workload to completion.

    Returns the finished :class:`repro.apps.base.AppRun`.  The snapshot
    header's ``app`` block names the workload and parameters; a snapshot
    captured outside a workload run (bare ``Machine.run``) cannot be
    resumed this way.
    """
    from repro.apps.workloads import workload

    snapshot = load_snapshot(path)
    meta = snapshot.app
    if not meta:
        raise ConfigurationError(
            "snapshot records no application metadata; resume it by "
            "restoring the machine and re-running your program")
    return workload(meta["workload"]).run(
        num_cells=meta["num_cells"], resume_from=str(path),
        **meta["params"])
