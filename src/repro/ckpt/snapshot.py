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
* hardware counters: MSC+ stats, command-queue/DMA/MC/cache/register
  state, ring buffers;
* network state: T-net/B-net serials and queues, S-net episodes,
  barrier and reduction generations;
* fault machinery: the plan RNG stream, injected-fault schedule, kill
  and stall ledgers, and the reliable transport's per-flow seq/ack/
  retry/reorder state;
* the whole trace buffer (the high-water mark of the recorded run).

The artifact is a directory written atomically (temp dir +
``os.replace``)::

    ckpt_000001/
        header.json     # schema, config, config/code hashes, app meta
        state.pkl       # everything above except raw memory bytes
        memories.npz    # per-cell used DRAM regions

``header.json`` carries ``schema: repro-ckpt-v1`` plus the resolved
machine config, a hash of it, and the repo code-version hash — the same
refuse-loudly pattern as ``repro-check-v1``: a snapshot from different
code or a different config never restores silently.

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

import json
import os
import pickle
import shutil
import tempfile
from collections import deque
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.errors import ConfigurationError
from repro.faults.plan import FaultPlan

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


def config_document(machine: "Machine") -> dict[str, Any]:
    """The resolved machine configuration a snapshot is bound to.

    Checkpoint cadence fields are deliberately excluded — they live in
    the snapshot *state* (counts/threshold), not its identity: restoring
    must continue the captured schedule regardless of ambient policy.
    """
    config = machine.config
    plan = machine.fault_plan
    return {
        "num_cells": config.num_cells,
        "memory_per_cell": config.memory_per_cell,
        "clock_mhz": config.clock_mhz,
        "cache_bytes": config.cache_bytes,
        "trace_capacity": config.trace_capacity,
        "allow_nonstandard": config.allow_nonstandard,
        "sanitize": machine.sanitize,
        "fault_plan": plan.to_dict() if plan is not None else None,
        "ack_policy": machine.ack_policy,
    }


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


def _queue_state(queue: Any) -> dict[str, Any]:
    return {
        "entries": list(queue._queue),
        "spill": list(queue._spill),
        "queue_words": queue._queue_words,
        "spill_words": queue._spill_words,
        "spill_buffers_allocated": queue._spill_buffers_allocated,
        "refill_interrupts": queue.refill_interrupts,
        "allocation_interrupts": queue.allocation_interrupts,
        "pushed": queue.pushed,
        "popped": queue.popped,
        "spilled": queue.spilled,
        "high_water_words": queue.high_water_words,
    }


def _restore_queue(queue: Any, saved: dict[str, Any]) -> None:
    queue._queue.clear()
    queue._queue.extend(saved["entries"])
    queue._spill.clear()
    queue._spill.extend(saved["spill"])
    queue._queue_words = saved["queue_words"]
    queue._spill_words = saved["spill_words"]
    queue._spill_buffers_allocated = saved["spill_buffers_allocated"]
    queue.refill_interrupts = saved["refill_interrupts"]
    queue.allocation_interrupts = saved["allocation_interrupts"]
    queue.pushed = saved["pushed"]
    queue.popped = saved["popped"]
    queue.spilled = saved["spilled"]
    queue.high_water_words = saved["high_water_words"]


def _cell_state(machine: "Machine", pe: int) -> dict[str, Any]:
    cell = machine.hw_cells[pe]
    msc = cell.msc
    ring = machine.rings[pe]
    return {
        "msc_stats": dict(vars(msc.stats)),
        "remote_store_acks": msc.remote_store_acks,
        "load_replies": list(msc._load_replies),
        "queues": [_queue_state(q) for q in msc.all_queues()],
        "send_dma": dict(vars(msc.send_dma)),
        "recv_dma": dict(vars(msc.recv_dma)),
        "mc": {
            "flag_increments": cell.mc.flag_increments,
            "dram_reads": cell.mc.dram_reads,
            "dram_writes": cell.mc.dram_writes,
        },
        "registers": dict(vars(cell.mc.registers)),
        "cache": dict(vars(cell.cache)) if cell.cache is not None else None,
        "ring": {
            "capacity_bytes": ring.capacity_bytes,
            "messages": list(ring._messages),
            "bytes_buffered": ring.bytes_buffered,
            "allocation_interrupts": ring.allocation_interrupts,
            "extra_buffers": ring.extra_buffers,
            "deposits": ring.deposits,
            "copies_out": ring.copies_out,
            "high_water_bytes": ring.high_water_bytes,
        },
    }


def _restore_cell(machine: "Machine", pe: int, saved: dict[str, Any]) -> None:
    cell = machine.hw_cells[pe]
    msc = cell.msc
    # Stats objects are aliased (FaultyBNet shares FaultStats with the
    # T-net, msc.cache is cell.cache): always update fields in place.
    vars(msc.stats).update(saved["msc_stats"])
    msc.remote_store_acks = saved["remote_store_acks"]
    msc._load_replies = list(saved["load_replies"])
    for queue, qstate in zip(msc.all_queues(), saved["queues"]):
        _restore_queue(queue, qstate)
    vars(msc.send_dma).update(saved["send_dma"])
    vars(msc.recv_dma).update(saved["recv_dma"])
    cell.mc.flag_increments = saved["mc"]["flag_increments"]
    cell.mc.dram_reads = saved["mc"]["dram_reads"]
    cell.mc.dram_writes = saved["mc"]["dram_writes"]
    vars(cell.mc.registers).update(saved["registers"])
    if saved["cache"] is not None and cell.cache is not None:
        vars(cell.cache).update(saved["cache"])
    ring = machine.rings[pe]
    rstate = saved["ring"]
    ring.capacity_bytes = rstate["capacity_bytes"]
    ring._messages.clear()
    ring._messages.extend(rstate["messages"])
    ring.bytes_buffered = rstate["bytes_buffered"]
    ring.allocation_interrupts = rstate["allocation_interrupts"]
    ring.extra_buffers = rstate["extra_buffers"]
    ring.deposits = rstate["deposits"]
    ring.copies_out = rstate["copies_out"]
    ring.high_water_bytes = rstate["high_water_bytes"]


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
    n = machine.config.num_cells
    tnet = machine.tnet
    bnet = machine.bnet

    document = config_document(machine)
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
        ctx_states[pe] = {
            "puts_per_dest": dict(ctx.acks._puts_per_dest),
            "acks_issued": ctx.acks._acks_issued,
            "wt_fetches": ctx._wt_fetches,
        }

    faulty: dict[str, Any] | None = None
    if machine.fault_plan is not None:
        faulty = {
            "stats": dict(vars(tnet.stats)),
            "killed": set(tnet.killed),
            "schedule": list(tnet.schedule),
            "delayed": [[rounds, packet] for rounds, packet in tnet._delayed],
        }

    state: dict[str, Any] = {
        "progress": machine.progress,
        "resumes": list(machine._resumes),
        "killed": sorted(machine.killed),
        "stalls": {pe: list(specs)
                   for pe, specs in machine._stalls.items() if specs},
        "stall_remaining": dict(machine._stall_remaining),
        "heap_next": list(machine._heap_next),
        "private_next": list(machine._private_next),
        "ckpt": {
            "counts": list(machine._ckpt_counts),
            "threshold": machine._ckpt_threshold,
            "every": machine._ckpt_every,
            "seq": machine.ckpt_seq,
        },
        "trace": machine.trace,
        "snet": {
            "arrived": sorted(machine.snet._arrived),
            "episodes_completed": machine.snet.episodes_completed,
        },
        "bnet": {
            "queues": {cid: list(q) for cid, q in bnet._queues.items() if q},
            "broadcast_count": bnet.broadcast_count,
            "next_serial": bnet._next_serial,
        },
        "tnet": {
            "next_serial": tnet._next_serial,
            "injected_count": tnet.injected_count,
            "delivered_count": tnet.delivered_count,
            # Empty at a resumable gate (pump drained everything); a
            # watchdog dump keeps the wedged frames for inspection.
            "channels": {flow: list(queue)
                         for flow, queue in tnet._channels.items()
                         if queue},
        },
        "faulty_tnet": faulty,
        "fault_rng": (machine.fault_rng.getstate()
                      if machine.fault_rng is not None else None),
        "transport": (machine.transport.state()
                      if machine.transport is not None else None),
        "barriers": {
            gid: {"generation": s.generation,
                  "arrived": sorted(s.arrived),
                  "members": s.members}
            for gid, s in machine._barriers.items()
        },
        "reductions": {
            gid: {"per_pe_generation": dict(s.per_pe_generation),
                  "slots": {g: dict(slot) for g, slot in s.slots.items()},
                  "results": dict(s.results),
                  "fetches": dict(s.fetches),
                  "members": s.members,
                  "ops": dict(s.ops)}
            for gid, s in machine._reductions.items()
        },
        "cells": [_cell_state(machine, pe) for pe in range(n)],
        "cell_states": cell_states,
        "ctx": ctx_states,
    }

    memories: dict[str, np.ndarray] = {}
    for pe in range(n):
        buf = machine.hw_cells[pe].memory._buf
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

def _config_from_document(document: dict[str, Any]):
    from repro.machine.config import MachineConfig

    plan_doc = document.get("fault_plan")
    plan = FaultPlan.from_dict(plan_doc) if plan_doc is not None else None
    return MachineConfig(
        num_cells=document["num_cells"],
        memory_per_cell=document["memory_per_cell"],
        clock_mhz=document["clock_mhz"],
        cache_bytes=document["cache_bytes"],
        trace_capacity=document["trace_capacity"],
        allow_nonstandard=document["allow_nonstandard"],
        sanitize=document["sanitize"],
        fault_plan=plan,
    )


def restore_machine(snapshot: MachineSnapshot | str | Path) -> "Machine":
    """Build a machine whose next ``run()`` continues the snapshot.

    The caller runs the *same program with the same parameters* on the
    returned machine; the header's ``app`` block records which (see
    :func:`resume_workload` for the turnkey path).
    """
    from repro.machine.base import _BarrierState, _ReductionState
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
    config = _config_from_document(document)
    machine = Machine(config, ack_policy=document["ack_policy"])
    if machine.obs is not None:
        raise ConfigurationError(
            "cannot restore under an active observer (snapshots carry "
            "no telemetry state); disable observe and retry")
    if machine.sanitize != document["sanitize"]:
        raise ConfigurationError(
            "ambient sanitizer setting contradicts the snapshot's "
            "resolved config; restore inside the same sanitize context")

    state = snapshot.state
    n = config.num_cells

    for pe in range(n):
        buf = machine.hw_cells[pe].memory._buf
        lo = snapshot.memories[f"lo{pe}"]
        buf[: lo.size] = lo
        hi = snapshot.memories.get(f"hi{pe}")
        if hi is not None and hi.size:
            buf[buf.size - hi.size:] = hi
    # _heap_next/_private_next stay at their fresh initial values: the
    # restored prologue re-runs its allocations and must land on the
    # captured addresses (the all-allocations-in-prologue contract).

    machine.progress = state["progress"]
    machine._resumes[:] = state["resumes"]
    machine.killed = set(state["killed"])
    machine._stalls = {pe: list(specs)
                       for pe, specs in state["stalls"].items()}
    machine._stall_remaining = dict(state["stall_remaining"])

    ckpt = state["ckpt"]
    machine._ckpt_counts[:] = ckpt["counts"]
    machine._ckpt_threshold = ckpt["threshold"]
    machine._ckpt_every = ckpt["every"]
    machine.ckpt_seq = ckpt["seq"]

    machine.trace = state["trace"]
    machine.snet._arrived = set(state["snet"]["arrived"])
    machine.snet.episodes_completed = state["snet"]["episodes_completed"]

    bnet = machine.bnet
    bnet.broadcast_count = state["bnet"]["broadcast_count"]
    bnet._next_serial = state["bnet"]["next_serial"]
    for cid, packets in state["bnet"]["queues"].items():
        bnet._queues[cid] = deque(packets)

    tnet = machine.tnet
    tnet._next_serial = state["tnet"]["next_serial"]
    tnet.injected_count = state["tnet"]["injected_count"]
    tnet.delivered_count = state["tnet"]["delivered_count"]
    for packets in state["tnet"]["channels"].values():
        for packet in packets:
            tnet._enqueue(packet)

    faulty = state["faulty_tnet"]
    if faulty is not None:
        vars(tnet.stats).update(faulty["stats"])
        tnet.killed = set(faulty["killed"])
        tnet.schedule = list(faulty["schedule"])
        tnet._delayed = [list(entry) for entry in faulty["delayed"]]
    if state["fault_rng"] is not None and machine.fault_rng is not None:
        machine.fault_rng.setstate(state["fault_rng"])
    if state["transport"] is not None and machine.transport is not None:
        machine.transport.load_state(state["transport"])

    machine._barriers = {}
    for gid, saved in state["barriers"].items():
        bstate = _BarrierState(saved["members"])
        bstate.generation = saved["generation"]
        bstate.arrived = set(saved["arrived"])
        machine._barriers[gid] = bstate
    machine._reductions = {}
    for gid, saved in state["reductions"].items():
        rstate = _ReductionState(saved["members"])
        rstate.per_pe_generation = dict(saved["per_pe_generation"])
        rstate.slots = {g: dict(slot)
                        for g, slot in saved["slots"].items()}
        rstate.results = dict(saved["results"])
        rstate.fetches = dict(saved["fetches"])
        rstate.ops = dict(saved["ops"])
        machine._reductions[gid] = rstate

    for pe in range(n):
        _restore_cell(machine, pe, state["cells"][pe])

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
    from repro.ckpt import policy as ckpt_policy

    snapshot = load_snapshot(path)
    meta = snapshot.app
    if not meta:
        raise ConfigurationError(
            "snapshot records no application metadata; resume it by "
            "restoring the machine and re-running your program")
    wl = workload(meta["workload"])
    resume = ckpt_policy.CheckpointPolicy(resume_from=str(path))
    with ckpt_policy.applied(resume):
        return wl.run(num_cells=meta["num_cells"], **meta["params"])
