"""The functional AP1000+ machine: cells, networks, and the SPMD scheduler.

The machine plays the role the *real AP1000 hardware* played in the
paper's methodology: it executes applications for real (bytes move, flags
count, barriers synchronize) while the probe layer records the trace that
MLSim later replays under different timing models.

Scheduling is cooperative.  Each cell's program is a generator; the
scheduler resumes a program until it either finishes or yields (blocks),
and resumes a blocked one only once a state change names it in the wake
set.  A round that wakes nobody is a hang, or a checkpoint gate to
capture.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import random
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, cast

from repro.ckpt import policy as _ckpt_policy
from repro.core.completion import AckPolicy
from repro.core.errors import (
    CheckpointInterrupt,
    CommTimeoutError,
    CommunicationError,
    ConfigurationError,
    DeadlockError,
)
from repro.hardware.cell import boot_cells
from repro.hardware.msc import Command, CommandKind, MSCPlus
from repro.machine.base import MachineBase, run_wake_rounds
from repro.machine.config import MachineConfig
from repro.machine.program import CellContext
from repro.network.bnet import BNet
from repro.network.packet import Packet, PacketKind, StrideSpec
from repro.network.tnet import TNet
from repro.network.topology import TorusTopology
from repro.obs.observer import MachineObserver
from repro.trace.events import EventKind

if TYPE_CHECKING:
    from repro.faults.injector import FaultyTNet
    from repro.faults.transport import ReliableTransport

#: Frames the receiving MSC+ queues a reply for instead of consuming.
_QUEUES_A_REPLY = (PacketKind.GET_REQUEST, PacketKind.REMOTE_LOAD)


def _fall_off(packet: Packet) -> None:
    """Receive port of a killed cell on a perfect wire."""


class _Killed(BaseException):
    """Raised by a doomed cell's probe in place of the row it dies at.
    Not an ``Exception``, so no program's handler can hold it."""


def _doom(ctx: CellContext, at_event: int) -> None:
    """Rebind ``ctx._record`` so the cell dies in place of the row after
    its ``at_event``-th, whose operation is never issued: a probe records
    before it issues (but SEND, whose row carries the serial of the
    message it posted).  ``ctx._rows`` rides in ``ctx.state()``, so a
    resumed run dies at the same row."""
    record = ctx._record

    def record_or_die(*args: Any, **fields: Any) -> int:
        if ctx._rows >= at_event:
            raise _Killed
        ctx._rows += 1
        return record(*args, **fields)

    ctx._record = record_or_die


class Machine(MachineBase):
    """A functional AP1000+ with ``config.num_cells`` cells."""

    def __init__(self, config: MachineConfig | int | None = None, *,
                 ack_policy: str = AckPolicy.EVERY_PUT) -> None:
        if config is None:
            config = MachineConfig()
        elif isinstance(config, int):
            config = MachineConfig(num_cells=config)
        self.ack_policy = ack_policy
        n = config.num_cells
        self.topology = TorusTopology.for_cells(n)
        #: Fault-injection schedule; None is a perfect machine.
        plan = config.fault_plan
        self.fault_plan = plan
        if plan is not None:
            # The fault layer loads only for a machine that has a plan.
            from repro.faults.injector import FaultyBNet, FaultyTNet

            self.fault_rng = random.Random(plan.seed)
            self.tnet: TNet = FaultyTNet(self.topology, plan,
                                         self.fault_rng)
            self.bnet: BNet = FaultyBNet(n, plan, self.fault_rng,
                                         self.tnet.stats)
        else:
            self.fault_rng = None
            self.tnet = TNet(self.topology)
            self.bnet = BNet(n)
        super().__init__(
            config, boot_cells(n, self.tnet, config.memory_per_cell))
        for cell, ring in zip(self.hw_cells, self.rings):
            cell.msc.send_sink = ring.deposit
        #: Byte-range annotation for repro.check.
        self.sanitize = config.sanitize
        #: Telemetry observer (repro.obs): None unless the config asks
        #: for it, so unobserved hot paths pay one ``is None`` test.
        self.obs = MachineObserver(self) if config.observe else None
        if self.obs is not None:
            self.tnet.observer = self.obs
            self.bnet.observer = self.obs
        self._dirty: set[int] = set()
        if plan is not None:
            strays = sorted({k.pe for k in plan.kills} - set(range(n)))
            if strays:
                raise ConfigurationError(
                    f"fault plan {plan.name!r} kills cells {strays} "
                    f"outside this {n}-cell machine")
        self._active_generators: dict[int, Any] | None = None
        #: Reliable link layer; None on a perfect machine.
        self.transport: ReliableTransport | None = None
        if plan is not None:
            from repro.faults.transport import ReliableTransport

            self.transport = ReliableTransport(self.tnet, plan, self)
            self.tnet.transport = self.transport
        else:
            # A perfect wire holds no frame: each MSC+ is plugged into
            # the T-net and a packet is delivered where it is injected.
            arrive = self._arrive
            self.tnet.ports = [functools.partial(arrive, cell.msc)
                               for cell in self.hw_cells]
        record_spill = self._record_spill
        for pe, cell in enumerate(self.hw_cells):
            # One hook per cell, shared by its five queues.
            on_spill = functools.partial(record_spill, pe)
            for queue in cell.msc.all_queues():
                queue.on_spill = on_spill
                if plan is not None:
                    if plan.queue_capacity_words is not None:
                        queue.capacity_words = plan.queue_capacity_words
                    if plan.spill_buffer_words is not None:
                        queue.spill_buffer_words = plan.spill_buffer_words
                    if plan.max_spill_buffers is not None:
                        queue.max_spill_buffers = plan.max_spill_buffers
        #: Checkpoint gate (repro.ckpt).  ``_ckpt_threshold`` is the site
        #: count each cell parks at; None means the gate is disarmed.
        self.checkpoint_dir = config.checkpoint_dir
        self._ckpt_every = config.checkpoint_every
        self._ckpt_threshold = (config.checkpoint_at_site
                                if config.checkpoint_at_site is not None
                                else config.checkpoint_every)
        self._ckpt_stop_after = config.stop_after_checkpoint
        self._ckpt_counts = [0] * n
        #: One-shot gate armed by a SIGTERM/SIGINT interrupt request:
        #: every cell parks at its very next checkpoint site.
        self._ckpt_oneshot = False
        self._gate_parked: set[int] = set()
        self._finished_cells: set[int] = set()
        #: Monotonic capture counter; names snapshot directories.
        self.ckpt_seq = 0
        #: Most recent in-memory capture (a MachineSnapshot), kept even
        #: when no checkpoint directory is configured.
        self.last_snapshot: Any = None
        #: Workload identity recorded into snapshot headers so
        #: ``repro run --resume-from`` knows what to re-launch.
        self.ckpt_meta: dict[str, Any] | None = None
        self._active_contexts: list[CellContext] | None = None
        #: Restore payloads staged by ``snapshot.restore_machine`` and
        #: consumed by the next run(): per-cell app loop state, context
        #: ``state()``s, and the killed set whose generators must be
        #: closed.
        self._restore_states: dict[int, dict[str, Any]] | None = None
        self._restore_ctx: dict[int, dict[str, Any]] | None = None
        self._restore_killed: set[int] | None = None
        #: What the last :meth:`run` decided: ``{"loop": "sharded" |
        #: "wake-set", "fallback": why ``shards > 1`` did not get the
        #: sharded engine, else None}``.
        self.engine: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # Packet movement
    # ------------------------------------------------------------------

    def mark_dirty(self, pe: int) -> None:
        self._dirty.add(pe)

    def pump(self) -> None:
        """Move the machine to communication quiescence.

        On a perfect wire a frame is delivered, and a GET request or
        remote load answered, inside the ``inject`` that sent it
        (:meth:`_arrive`), so pumping the dirty MSC+ once is all there
        is to do.

        With a fault plan active the wire holds frames and may eat them,
        so "nothing moves" is not enough: whenever the wire goes quiet
        while framed packets remain unacknowledged, the reliable
        transport is ticked (eventually retransmitting) and the wire is
        drained again.  The loop ends only at *reliable* quiescence —
        every frame delivered exactly once and acknowledged — or by
        raising :class:`~repro.core.errors.CommTimeoutError` once a
        frame's retry budget is spent.  Recovery thus completes inside
        the pump, preserving the quiescence-at-issue property the
        happens-before checker relies on.
        """
        if self.obs is not None:
            self.obs.sample_queues()
        transport = self.transport
        if transport is None:
            while self._dirty:
                dirty, self._dirty = self._dirty, set()
                for pe in dirty:
                    msc = self.hw_cells[pe].msc
                    msc.pump_send()
                    msc.pump_replies()
                if self._wake is not None:
                    # Pumping a cell's MSC+ updates its sending-side flags.
                    self._wake.update(dirty)
            return
        while True:
            self._pump_wire(transport)
            if transport.idle():
                return
            transport.tick()

    def _arrive(self, msc: MSCPlus, packet: Packet) -> None:
        """Receive port of one cell on a perfect wire: the MSC+ takes
        the frame and answers at once what it queued a reply for."""
        msc.deliver(packet)
        if packet.kind in _QUEUES_A_REPLY:
            msc.pump_replies()
        self.progress += 1
        if self._wake is not None:
            self._wake.add(packet.dst)

    def _pump_wire(self, transport: ReliableTransport) -> None:
        """One quiescence loop of the wire that holds frames (the fault
        layer's): drain it through the reliable transport until nothing
        moves, without retransmitting."""
        wake = self._wake
        while True:
            dirty = self._dirty
            if (not dirty and self.tnet.injected_count
                    == self.tnet.delivered_count):
                return
            self._dirty = set()
            for pe in dirty:
                if pe in self.killed:
                    continue
                msc = self.hw_cells[pe].msc
                msc.pump_send()
                msc.pump_replies()
            if wake is not None:
                # Pumping a cell's MSC+ updates its sending-side flags.
                wake.update(dirty)
            for packet in self.tnet.drain_all():
                for frame in transport.receive(packet):
                    self.hw_cells[frame.dst].msc.deliver(frame)
                    self.progress += 1
                    if wake is not None:
                        wake.add(frame.dst)
                    if frame.kind in _QUEUES_A_REPLY:
                        self._dirty.add(frame.dst)

    # ------------------------------------------------------------------
    # Distributed shared memory
    # ------------------------------------------------------------------

    def remote_store(self, src: int, dst: int, remote_addr: int,
                     data: bytes) -> None:
        """Issue a hardware remote store from ``src`` to ``dst``."""
        scratch = self.alloc_scratch(src, data)
        command = Command(
            kind=CommandKind.REMOTE_STORE, dst=dst, raddr=remote_addr,
            laddr=scratch.addr, send_stride=StrideSpec.contiguous(len(data)),
            recv_stride=StrideSpec.contiguous(len(data)))
        self.hw_cells[src].msc.issue(command)
        self.mark_dirty(src)
        self.pump()

    def remote_load(self, src: int, target: int, remote_addr: int,
                    size: int) -> bytes:
        """Blocking remote load: returns the bytes read from ``target``."""
        scratch = self.alloc_scratch(src, bytes(size))
        command = Command(
            kind=CommandKind.REMOTE_LOAD, dst=target, raddr=remote_addr,
            laddr=scratch.addr, send_stride=StrideSpec.contiguous(size),
            recv_stride=StrideSpec.contiguous(size))
        self.hw_cells[src].msc.issue(command)
        self.mark_dirty(src)
        self.pump()
        reply = self.hw_cells[src].msc.take_load_reply()
        if reply is None:
            if target in self.killed:
                # Degradation can discard traffic toward a dead cell, but
                # a load needs a value; there is no graceful answer.
                raise CommTimeoutError(
                    f"remote load from killed cell {target} cannot "
                    "complete")
            raise CommunicationError(
                f"remote load from cell {target} produced no reply")
        assert reply.data is not None
        return reply.data

    # ------------------------------------------------------------------
    # SPMD scheduling
    # ------------------------------------------------------------------

    def run(self, program: Callable, *args, **kwargs) -> list[Any]:
        """Execute ``program(ctx, *args, **kwargs)`` on every cell.

        Returns the per-cell return values.  Raises
        :class:`~repro.core.errors.DeadlockError` when every unfinished
        program is blocked and nothing can make progress — or, when the
        hang is attributable to an active fault plan (killed cells or
        unacknowledged frames), the structured
        :class:`~repro.core.errors.CommTimeoutError` so chaos runs never
        hang silently.

        ``config.shards > 1`` takes the sharded engine unless
        :func:`repro.machine.sharded.ineligible` names an obstacle;
        everything else takes the wake-set loop, and :attr:`engine`
        records which.  Both produce the interleaving of a loop that
        resumes every unfinished cell every pass, in ascending pe order
        (and therefore byte-identical traces; ``tests/machine/
        reference_loop.py`` keeps that loop as the oracle).  The wake-set
        loop parks a cell when it yields and resumes it only once a state
        change that can flip its blocking condition names it in the
        machine's wake set (frame delivery wakes the destination, an MSC+
        pump wakes its own cell's sending-side flags, barrier release and
        reduction completion wake the group, a creg store wakes the
        register's owner, host traffic wakes everyone).  A skipped resume
        is provably a no-op: every yield in the cell programs sits in a
        ``while not condition: yield`` loop whose condition only flips
        through one of those wake sites, and the failed re-check itself
        mutates nothing (``ring.receive`` returns None without consuming
        on a miss).

        A fault plan's kills are keyed on the trace, not on the loop:
        each doomed cell's ``_record`` is rebound (:func:`_doom`) so the
        cell dies in place of a row it would record.
        """
        n = self.config.num_cells
        fallback = None
        if self.config.shards > 1:
            from repro.machine import sharded

            fallback = sharded.ineligible(self)
            if fallback is None:
                self.engine = {"loop": "sharded", "fallback": None}
                return sharded.run_sharded(self, program, args, kwargs)
        self.engine = {"loop": "wake-set", "fallback": fallback}
        contexts = [CellContext(self, pe) for pe in range(n)]
        self._active_contexts = contexts
        if self._restore_ctx is not None:
            for pe, saved in self._restore_ctx.items():
                contexts[pe].load_state(saved)
            self._restore_ctx = None
        results: list[Any] = [None] * n
        generators: dict[int, Any] = {}
        for pe in range(n):
            outcome = program(contexts[pe], *args, **kwargs)
            if inspect.isgenerator(outcome):
                generators[pe] = outcome
            else:
                results[pe] = outcome
        if self._restore_killed:
            # Cells that were already dead at capture never run again;
            # their kill side effects were restored with the snapshot.
            for pe in sorted(self._restore_killed):
                self._cut_off(pe)
                gen = generators.pop(pe, None)
                if gen is not None:
                    gen.close()
            self._restore_killed = None
        self._finished_cells = set()
        self._active_generators = generators
        try:
            if self.fault_plan is not None:
                self._arm_kills(contexts, generators)
            self._run_batched(generators, results)
        finally:
            self._active_generators = None
            self._active_contexts = None
            self._restore_states = None
        self.pump()
        return results

    def _arm_kills(self, contexts: list[CellContext],
                   generators: dict[int, Any]) -> None:
        """Kill the plan's ``at_event=0`` cells before any program
        steps; doom the others at their row."""
        plan = self.fault_plan
        for pe in sorted({k.pe for k in plan.kills} & generators.keys()):
            at_event = plan.killed_at(pe)
            if at_event:
                _doom(contexts[pe], at_event)
            else:
                self.kill_cell(pe)

    def _run_batched(self, generators: dict[int, Any],
                     results: list[Any]) -> None:
        """Wake-set scheduler: resume only cells named by a wake site
        (the round rule is :func:`~repro.machine.base.run_wake_rounds`)."""

        def resume(pe: int) -> None:
            try:
                next(generators[pe])
            except StopIteration as stop:
                results[pe] = stop.value
                del generators[pe]
                self._finished_cells.add(pe)
                self.progress += 1
            except _Killed:
                self.kill_cell(pe)

        def idle() -> None:
            if self._ckpt_gate_ready():
                # Every cell is parked at the checkpoint gate, not hung:
                # capture and release.
                self._capture_checkpoint()
            elif self._gate_parked:
                # Some cells parked but the gate can never fill (a cell
                # finished mid-epoch): give up on checkpointing and
                # release them.
                self._abort_checkpoint()
            else:
                # Every unfinished cell is parked and nothing woke
                # anyone: no re-check can ever pass again.
                self._raise_hang(generators)

        wake: set[int] = set()
        self._wake = wake
        try:
            run_wake_rounds(generators, wake, resume, idle)
        finally:
            self._wake = None

    # ------------------------------------------------------------------
    # Checkpoint gate (repro.ckpt)
    # ------------------------------------------------------------------

    def _ckpt_armed_for(self, pe: int) -> bool:
        """True while ``pe`` must park at its current checkpoint site."""
        if self._ckpt_oneshot:
            return True
        threshold = self._ckpt_threshold
        return threshold is not None and self._ckpt_counts[pe] >= threshold

    def _ckpt_enabled(self) -> bool:
        return self._ckpt_threshold is not None or self._ckpt_oneshot

    def _ckpt_poll_interrupt(self) -> None:
        """Honour a pending SIGTERM/SIGINT checkpoint request.

        Polled only at checkpoint sites, and only when snapshots have
        somewhere to land; arms a one-shot gate so every cell parks at
        its very next site, then the capture stops the run with
        :class:`~repro.core.errors.CheckpointInterrupt`.
        """
        if self.checkpoint_dir is None:
            return
        if _ckpt_policy.interrupt_requested():
            _ckpt_policy.clear_interrupt()
            self._ckpt_oneshot = True
            self._ckpt_stop_after = True

    def _ckpt_gate_ready(self) -> bool:
        """Every live cell is parked at the gate and none finished."""
        generators = self._active_generators
        if not self._gate_parked or not generators or self._finished_cells:
            return False
        return all(pe in self._gate_parked for pe in generators)

    def _capture_checkpoint(self) -> None:
        """All live cells are parked: capture, persist, release.

        The snapshot records the *post*-capture threshold, so a resumed
        run arms the next epoch rather than re-parking at this one.
        """
        from repro.ckpt.snapshot import capture_snapshot, save_snapshot

        self.pump()
        self.ckpt_seq += 1
        if self._ckpt_every is not None:
            self._ckpt_threshold = ((self._ckpt_threshold or 0)
                                    + self._ckpt_every)
        else:
            self._ckpt_threshold = None
        self._ckpt_oneshot = False
        snapshot = capture_snapshot(self)
        self.last_snapshot = snapshot
        path = None
        if self.checkpoint_dir is not None:
            path = save_snapshot(snapshot, self.checkpoint_dir)
        self._gate_parked.clear()
        self.progress += 1
        self.wake_all()
        if self._ckpt_stop_after:
            raise CheckpointInterrupt(
                f"run stopped after capturing checkpoint {self.ckpt_seq} "
                "as requested",
                snapshot_path=str(path) if path is not None else None)

    def _abort_checkpoint(self) -> None:
        """The gate can never fill: disarm it and release parked cells.

        Happens when a cell finished (its return value cannot survive a
        restore) or a killed cohort left the remaining cells unable to
        reach the site count.  The run continues un-checkpointed.
        """
        self._ckpt_threshold = None
        self._ckpt_oneshot = False
        self._gate_parked.clear()
        self.progress += 1
        self.wake_all()

    def _raise_hang(self, generators: dict[int, Any]) -> None:
        """No live cell can ever be resumed again: name the hang for
        what it is."""
        report = self._deadlock_report(generators)
        if self.checkpoint_dir is not None:
            with contextlib.suppress(Exception):
                from repro.ckpt.snapshot import (
                    capture_snapshot,
                    save_snapshot,
                )

                self.ckpt_seq += 1
                dump = capture_snapshot(self, resumable=False)
                path = save_snapshot(dump, self.checkpoint_dir)
                report += ("\n  machine state dumped for inspection "
                           f"(non-resumable) to {path}")
        if self.fault_plan is not None and (
                self.killed
                or (self.transport is not None
                    and not self.transport.idle())):
            raise CommTimeoutError(
                "communication watchdog expired: cells blocked on "
                "communication that can no longer complete\n" + report)
        raise DeadlockError(report)

    def kill_cell(self, pe: int) -> None:
        """Kill cell ``pe`` mid-program: its generator dies instantly and
        frames toward it fall off the wire.  With ``plan.degrade`` the
        survivors' collectives shrink around the corpse; without it, any
        cell that depends on ``pe`` times out with a structured error."""
        if pe in self.killed:
            return
        generators = self._active_generators
        if generators is not None:
            gen = generators.pop(pe, None)
            if gen is not None:
                gen.close()
        self.killed.add(pe)
        self._cut_off(pe)
        self.blocked.pop(pe, None)
        self._gate_parked.discard(pe)
        self._finished_cells.discard(pe)
        self._dirty.discard(pe)
        if self.transport is not None:
            self.transport.on_kill(pe)
        if self.fault_plan is not None and self.fault_plan.degrade:
            self._refresh_collectives()
        self.progress += 1

    def _cut_off(self, pe: int) -> None:
        """Frames toward a dead cell fall off the wire (a faulty one,
        which exists exactly when a plan does, drops them itself)."""
        tnet = self.tnet
        if self.fault_plan is not None:
            cast("FaultyTNet", tnet).killed.add(pe)
        elif tnet.ports is not None:
            tnet.ports[pe] = _fall_off

    def _refresh_collectives(self) -> None:
        """Re-check every pending collective after the world shrank."""
        for gid, bstate in self._barriers.items():
            self._maybe_release_barrier(gid, bstate)
        for gid, rstate in self._reductions.items():
            for generation in sorted(rstate.slots):
                self._maybe_complete_reduction(gid, rstate, generation)

    # ------------------------------------------------------------------
    # Robustness bookkeeping
    # ------------------------------------------------------------------

    def record_robustness_event(self, kind: EventKind, *, pe: int,
                                partner: int, count: int = 0) -> None:
        """Record a RETRY/TIMEOUT trace event from the transport."""
        self.trace.append(kind, pe, partner, int(count))

    def _record_spill(self, pe: int, queue_name: str, words: int) -> None:
        """A command-queue word streamed past the MSC+ into DRAM."""
        self.trace.append(EventKind.SPILL, pe, size=int(words))

    def _deadlock_report(self, generators: dict[int, Any] | None = None
                         ) -> str:
        if generators is None:
            generators = self._active_generators or {}
        blocked = sorted(generators)
        lines = [
            f"deadlock: {len(blocked)} cell(s) blocked with no progress "
            f"possible: {blocked[:16]}{'...' if len(blocked) > 16 else ''}"
        ]
        for gid, state in self._barriers.items():
            if state.arrived:
                lines.append(
                    f"  barrier group {gid}: {len(state.arrived)} arrived, "
                    f"waiting for more")
        for pe in blocked[:16]:
            wait = self.blocked.get(pe)
            if wait is not None and wait[0] == "flag_wait":
                _, flag_id, target, addr = wait
                current = self.hw_cells[pe].mc.read_flag(addr)
                status = f"waiting on flag {flag_id} ({current}/{target})"
            else:
                status = "blocked (barrier, receive, or reduction)"
            lines.append(
                f"  cell {pe}: {status}; T-net in flight: "
                f"{self.tnet.pending_for(pe)} inbound, "
                f"{self.tnet.pending_from(pe)} outbound")
        if self.killed:
            lines.append(f"  killed cells: {sorted(self.killed)}")
        in_flight = self.tnet.injected_count - self.tnet.delivered_count
        lines.append(f"  packets in flight: {in_flight}")
        return "\n".join(lines)

