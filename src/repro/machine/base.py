"""What every back end of the cell-program interface keeps per machine.

:class:`~repro.machine.program.CellContext` is written once; what it
runs on differs (the functional :class:`~repro.machine.machine.Machine`
with MSC+ and T-net, the static analyzer's instant-delivery
``SymbolicMachine``, a sharded worker).  :class:`MachineBase` is the
part none of them may disagree on, because symmetric addresses and
collective results depend on it: the per-cell heap / private-area
allocator (remote-access staging buffer included), the barrier and
reduction state machines, the table of what each cell is blocked on,
and the wake-round scheduling kernel.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.core.collectives import combine
from repro.core.completion import AckPolicy
from repro.core.errors import CommunicationError, ConfigurationError
from repro.core.flags import flag_area_end
from repro.hardware.cell import HardwareCell
from repro.machine.config import MachineConfig
from repro.machine.program import Group, LocalArray
from repro.machine.ringbuffer import RingBuffer
from repro.network.snet import SNet
from repro.trace.buffer import TraceBuffer

#: Heap allocations start above the flag area, cache-line aligned.
_HEAP_ALIGN = 64
#: Size of the per-cell staging buffer of remote loads and stores.
_SCRATCH_BYTES = 4096


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


class _BarrierState:
    __slots__ = ("generation", "arrived", "members")

    def __init__(self, members: tuple[int, ...] = ()) -> None:
        self.generation = 0
        self.arrived: set[int] = set()
        self.members = tuple(members)


class _ReductionState:
    __slots__ = ("per_pe_generation", "slots", "results", "fetches",
                 "members", "ops")

    def __init__(self, members: tuple[int, ...] = ()) -> None:
        self.per_pe_generation: dict[int, int] = {}
        self.slots: dict[int, dict[int, Any]] = {}
        self.results: dict[int, Any] = {}
        self.fetches: dict[int, int] = {}
        self.members = tuple(members)
        #: Reduction op per pending generation (needed to finish a
        #: degraded reduction when a kill, not a contribution, completes
        #: it).
        self.ops: dict[int, str] = {}


class MachineBase:
    """Cell memories, symmetric allocation and collectives of one
    SPMD machine; subclasses add how commands travel."""

    #: Stamp byte footprints on communication events (repro.check).
    sanitize = False
    ack_policy = AckPolicy.EVERY_PUT
    #: Fault-injection schedule; only a real machine can carry one.
    fault_plan: Any = None
    #: Per-cell loop state staged by a checkpoint restore.
    _restore_states: dict[int, dict[str, Any]] | None = None

    def __init__(self, config: MachineConfig,
                 hw_cells: list[HardwareCell]) -> None:
        n = config.num_cells
        self.config = config
        self.hw_cells = hw_cells
        self.rings = [RingBuffer() for _ in range(n)]
        self.snet = SNet(n)
        self.trace = TraceBuffer(num_pes=n, capacity=config.trace_capacity)
        self.world_group = Group(gid=0, members=tuple(range(n)))
        self._heap_next = [_align(flag_area_end(), _HEAP_ALIGN)] * n
        # Private (non-symmetric) allocations grow downward from the top
        # of DRAM so they never desynchronize the symmetric heap.
        self._private_next = [config.memory_per_cell] * n
        self._scratch: list[LocalArray] | None = None
        self._barriers: dict[int, _BarrierState] = {}
        self._reductions: dict[int, _ReductionState] = {}
        #: Progress counter; blocking helpers bump it when their condition
        #: passes, deliveries bump it too.
        self.progress = 0
        #: Wake set of the batched scheduler (None outside a batched
        #: run).  Every state change that can unblock a parked cell must
        #: name the cells it may have woken here; see :meth:`wake`.
        self._wake: set[int] | None = None
        #: Cells a fault plan has killed.
        self.killed: set[int] = set()
        #: What each blocked cell waits for: ``("flag_wait", flag id,
        #: target, flag addr)``, ``("barrier" | "reduce", gid, members)``,
        #: ``("recv", src, context)`` or ``("creg_load", index)``.  Feeds
        #: the deadlock report and the static analyzer's wedge findings.
        self.blocked: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Memory allocation
    # ------------------------------------------------------------------

    def alloc_array(self, pe: int, shape, dtype,
                    align: int = _HEAP_ALIGN) -> LocalArray:
        dtype = np.dtype(dtype)
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        nbytes = (int(math.prod(shape)) * dtype.itemsize if shape
                  else dtype.itemsize)
        nbytes = max(nbytes, dtype.itemsize)
        addr = _align(self._heap_next[pe], align)
        end = addr + nbytes
        if end > self._private_next[pe]:
            raise ConfigurationError(
                f"cell {pe} out of memory: heap would reach {end} bytes "
                f"against the private area at {self._private_next[pe]}")
        self._heap_next[pe] = _align(end, _HEAP_ALIGN)
        raw = self.hw_cells[pe].memory.view(addr, nbytes)
        data = raw.view(dtype).reshape(shape)
        return LocalArray(data=data, addr=addr)

    def alloc_private(self, pe: int, nbytes: int,
                      align: int = _HEAP_ALIGN) -> LocalArray:
        """Allocate a per-cell *private* byte buffer from the top of DRAM.

        Private areas (e.g. write-through page copies) may be allocated
        by any subset of cells without breaking symmetric-heap address
        agreement, because they never touch the upward-growing heap.
        """
        if nbytes <= 0:
            raise ConfigurationError("private allocation must be non-empty")
        addr = self._private_next[pe] - nbytes
        addr -= addr % align
        if addr < self._heap_next[pe]:
            raise ConfigurationError(
                f"cell {pe} out of memory: private area would reach {addr} "
                f"against the heap at {self._heap_next[pe]}")
        self._private_next[pe] = addr
        raw = self.hw_cells[pe].memory.view(addr, nbytes)
        return LocalArray(data=raw, addr=addr)

    def alloc_scratch(self, pe: int, data: bytes) -> LocalArray:
        """The per-cell staging buffer of shared-memory traffic, loaded
        with ``data``.  Carved out of the symmetric heap of *every* cell
        at the first remote access of any cell."""
        if len(data) > _SCRATCH_BYTES:
            raise CommunicationError(
                f"remote access of {len(data)} bytes exceeds the "
                f"{_SCRATCH_BYTES}-byte staging buffer; use PUT/GET")
        if self._scratch is None:
            self._scratch = [self.alloc_array(p, _SCRATCH_BYTES, np.uint8)
                             for p in range(len(self.hw_cells))]
        buf = self._scratch[pe]
        if data:
            buf.data[:len(data)] = np.frombuffer(data, dtype=np.uint8)
        return buf

    # ------------------------------------------------------------------
    # Progress and wake-ups
    # ------------------------------------------------------------------

    def note_progress(self) -> None:
        self.progress += 1

    def pump(self) -> None:
        """Move the machine to communication quiescence; a machine
        without a wire is always there."""

    def wake(self, pe: int) -> None:
        """Tell the batched scheduler that ``pe``'s blocking condition
        may have flipped (no-op outside a batched run)."""
        if self._wake is not None:
            self._wake.add(pe)

    def wake_group(self, members: tuple[int, ...]) -> None:
        if self._wake is not None:
            self._wake.update(members)

    def wake_all(self) -> None:
        if self._wake is not None:
            self._wake.update(range(len(self.hw_cells)))

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------

    def _alive_members(self, members: tuple[int, ...]) -> tuple[int, ...]:
        """The members a collective must wait for.

        On a perfect machine (or without ``plan.degrade``) that is every
        member — a killed cell then hangs the collective until the
        scheduler finds the hang and raises a CommTimeoutError.  Under
        degradation the group shrinks around its dead members."""
        if (self.killed and self.fault_plan is not None
                and self.fault_plan.degrade):
            return tuple(m for m in members if m not in self.killed)
        return members

    def barrier_arrive(self, group: Group, pe: int) -> int:
        state = self._barriers.get(group.gid)
        if state is None:
            state = _BarrierState(group.members)
            self._barriers[group.gid] = state
        if pe in state.arrived:
            raise CommunicationError(
                f"cell {pe} arrived twice at barrier of group {group.gid}")
        if pe not in group:
            raise CommunicationError(
                f"cell {pe} synchronizing with group {group.gid} it does "
                "not belong to")
        state.arrived.add(pe)
        generation = state.generation
        self._maybe_release_barrier(group.gid, state)
        return generation

    def _maybe_release_barrier(self, gid: int, state: _BarrierState) -> None:
        required = self._alive_members(state.members)
        if not required:
            return
        if required is state.members:
            # barrier_arrive admits each member once and nobody else, so
            # the full group has arrived exactly when the counts agree.
            if len(state.arrived) < len(required):
                return
        elif not all(m in state.arrived for m in required):
            # Degraded around killed members, some of which may have
            # arrived before dying: only a membership scan can tell.
            return
        state.arrived.clear()
        state.generation += 1
        self.progress += 1
        self.wake_group(state.members)
        if gid == 0:
            # The all-cells barrier is the hardware S-net's job.
            for member in state.members:
                self.snet.arrive(member)

    def barrier_passed(self, gid: int, generation: int) -> bool:
        state = self._barriers.get(gid)
        return state is not None and state.generation > generation

    def reduce(self, group: Group, pe: int, value: Any, op: str):
        """Generator implementing one member's part of a reduction."""
        if pe not in group:
            raise CommunicationError(
                f"cell {pe} reducing with group {group.gid} it does not "
                "belong to")
        state = self._reductions.get(group.gid)
        if state is None:
            state = _ReductionState(group.members)
            self._reductions[group.gid] = state
        generation = state.per_pe_generation.get(pe, 0)
        state.per_pe_generation[pe] = generation + 1
        slot = state.slots.setdefault(generation, {})
        if pe in slot:
            raise CommunicationError(
                f"cell {pe} contributed twice to reduction {generation} "
                f"of group {group.gid}")
        slot[pe] = value
        state.ops.setdefault(generation, op)
        self._maybe_complete_reduction(group.gid, state, generation)
        while generation not in state.results:
            self.blocked[pe] = ("reduce", group.gid, group.members)
            yield
        self.blocked.pop(pe, None)
        self.note_progress()
        result = state.results[generation]
        state.fetches[generation] += 1
        if state.fetches[generation] >= len(
                self._alive_members(state.members)):
            del state.results[generation]
            del state.fetches[generation]
        return result

    def _maybe_complete_reduction(self, gid: int, state: _ReductionState,
                                  generation: int) -> None:
        slot = state.slots.get(generation)
        if slot is None:
            return
        required = self._alive_members(state.members)
        if not required or not all(m in slot for m in required):
            return
        # Combine in member order (alive contributions only, when the
        # group has degraded around killed cells).
        contributions = [slot[m] for m in required]
        op = state.ops.pop(generation)
        state.results[generation] = functools.reduce(
            lambda a, b: _combine_values(op, a, b), contributions)
        state.fetches[generation] = 0
        del state.slots[generation]
        self.progress += 1
        self.wake_group(state.members)


def _combine_values(op: str, left: Any, right: Any) -> Any:
    """Reduction combine supporting scalars and numpy arrays."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        if op == "sum":
            return left + right
        if op == "max":
            return np.maximum(left, right)
        if op == "min":
            return np.minimum(left, right)
        if op == "prod":
            return left * right
        raise ConfigurationError(f"vector reduction op {op!r} not supported")
    return combine(op, left, right)


def run_wake_rounds(live, wake: set[int], resume: Callable[[int], None],
                    idle: Callable[[], None]) -> None:
    """The wake-set scheduling kernel: resume only cells a wake names.

    ``live`` holds the unfinished cells; ``resume(pe)`` runs one cell to
    its next block and removes it from ``live`` when it finished or
    died; every state change that may unblock a cell names it in
    ``wake``.

    A "round" mirrors one pass of the resume-everyone reference loop
    (the test oracle, ``tests/machine/reference_loop.py``):
    cells resume in ascending-pe order, each at most once per round.  A
    wake caused by cell ``p`` for cell ``w`` joins the *current* round
    when ``w > p`` and ``w`` has not yet run this round (the reference
    pass would still reach it), and the next round otherwise -- so the
    sequence of effective (non-no-op) resumes is exactly the reference
    loop's.  A wake recorded for a cell that is already past its wait
    costs one no-op resume, so stale wakes are harmless; a *missed* wake
    would hang, which is what the scheduler-equivalence tests pin down.

    When a round ends with live cells and nobody woken, ``idle()``
    either repairs that (a checkpoint gate to capture) or raises; the
    next round then resumes every live cell.
    """
    pending = set(live)         # still to resume this round
    heap = sorted(pending)
    done: set[int] = set()      # resumed this round
    nxt: set[int] = set()       # woken for the next round
    while True:
        while heap:
            pe = heapq.heappop(heap)
            if pe not in pending:
                continue
            pending.discard(pe)
            done.add(pe)
            resume(pe)
            if wake:
                for w in wake:
                    if w > pe and w not in done and w in live:
                        if w not in pending:
                            pending.add(w)
                            heapq.heappush(heap, w)
                    else:
                        nxt.add(w)
                wake.clear()
        if not live:
            return
        pending = {w for w in nxt if w in live}
        heap = sorted(pending)
        done.clear()
        nxt.clear()
        if not heap:
            idle()
            pending = set(live)
            heap = sorted(pending)
            wake.clear()
