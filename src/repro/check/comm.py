"""Static communication-graph analyzer: concolic SPMD interpretation.

The paper's compiler statically knows the PUT/GET communication pattern
of the program it generated; this module recovers that knowledge for our
SPMD programs.  A :class:`SymbolicMachine` abstractly executes a cell
program at several machine sizes — no hardware networks, no timing,
instant delivery, but byte-faithful memory and numerically identical
reductions — and records the same annotated trace the sanitizer would.
From those runs it extracts a **static communication graph** (sync-point
nodes, PUT/GET/SEND edges with symbolic partner expressions and message
count/byte closed forms in P, see :mod:`repro.check.symbolic`) and runs
scale-generic analyses the dynamic checker cannot:

``COMM-DIVERGENCE``
    group members execute different collective sequences (a deadlock at
    *any* machine size exhibiting the divergent branch), or a cell is
    stuck at a collective/RECEIVE when the symbolic run wedges;
``COMM-UNMATCHED-FLAG``
    a flag wait whose target exceeds the increments the rest of the
    program ever produces;
``COMM-OVERLAP``
    write-write or write-read footprint overlap predicted from the
    symbolic trace (``repro.check.races`` beyond the traced execution);
``COMM-STRIDE``
    a stride-transfer call site whose element skip varies within one
    run — the non-constant-stride pattern SPMD005 approximates in the
    AST, checked here against actually-issued transfers.

Findings are aggregated across machine sizes, so one report covers
P ∈ {4, 16, 64} with a single diagnostic per root cause.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import deque
from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.check.diagnostics import (
    SEVERITY_ERROR,
    CheckReport,
    Diagnostic,
    EventRef,
)
from repro.check.symbolic import (
    DEFAULT_SAMPLES,
    ClosedForm,
    fit_closed_form,
    infer_partner_pattern,
)
from repro.core.completion import AckPolicy, AckTracker
from repro.core.errors import CommunicationError, ConfigurationError
from repro.core.flags import MAX_FLAGS_PER_PE, Flag, flag_area_end
from repro.core.stride import ElementStride
from repro.hardware.memory import WORD_BYTES
from repro.machine.config import SPARC_US_PER_FLOP
from repro.machine.machine import _combine_values
from repro.machine.program import CkptState, Group, LocalArray
from repro.network.packet import StrideSpec
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent

__all__ = [
    "CommGraph",
    "CommRun",
    "SymbolicContext",
    "SymbolicMachine",
    "DEFAULT_SCALES",
    "STATIC_APPS",
    "UNTIMED_KINDS",
    "analyze_program",
    "analyze_app",
    "check_program",
    "kind_totals",
    "run_findings",
    "static_app_table",
    "static_params",
]

#: Machine sizes the scale-generic findings are reported over.
DEFAULT_SCALES = (4, 16, 64)

_HEAP_ALIGN = 64
_MEMORY_PER_CELL = 16 * 1024 * 1024

#: Event kinds that form communication-graph edges.
_EDGE_KINDS = {EventKind.PUT, EventKind.GET, EventKind.SEND}
#: Event kinds that form synchronization nodes.
_NODE_KINDS = {EventKind.BARRIER, EventKind.GOP, EventKind.VGOP,
               EventKind.FLAG_WAIT}
_COLLECTIVE_KINDS = {EventKind.BARRIER, EventKind.GOP, EventKind.VGOP}

_THIS_FILE = str(Path(__file__).resolve())


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def _caller_site() -> tuple[str, int]:
    """(file, line) of the nearest stack frame outside this module —
    the app or runtime-library call site of a communication op."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename == _THIS_FILE:
        frame = frame.f_back
    if frame is None:  # pragma: no cover
        return ("<unknown>", 0)
    return (frame.f_code.co_filename, frame.f_lineno)


def _rel_site(site: tuple[str, int]) -> tuple[str, int]:
    """Shorten a site path to be repo-relative when possible."""
    path, line = site
    parts = Path(path).parts
    for anchor in ("repro", "examples"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            return (str(Path(*parts[idx:])), line)
    return (Path(path).name, line)


@dataclass
class _Message:
    """An in-flight two-sided message (ring-buffer entry)."""

    src: int
    data: bytes
    context: int
    serial: int

    @property
    def payload_bytes(self) -> int:
        return len(self.data)


class _SymBarrier:
    __slots__ = ("generation", "arrived", "members")

    def __init__(self, members: tuple[int, ...]) -> None:
        self.generation = 0
        self.arrived: set[int] = set()
        self.members = members


class _SymReduction:
    __slots__ = ("per_pe_generation", "slots", "results", "fetches",
                 "members", "ops")

    def __init__(self, members: tuple[int, ...]) -> None:
        self.per_pe_generation: dict[int, int] = {}
        self.slots: dict[int, dict[int, Any]] = {}
        self.results: dict[int, Any] = {}
        self.fetches: dict[int, int] = {}
        self.members = members
        self.ops: dict[int, str] = {}


class SymbolicMachine:
    """An abstract AP1000+ for concolic analysis.

    Byte-faithful per-cell memories and the exact allocation arithmetic
    of :class:`repro.machine.machine.Machine` (so symmetric addresses
    agree with a real run), but instant delivery and no hardware model:
    a PUT lands and increments flags the moment it is issued.  Every
    operation records the same :class:`TraceEvent` a sanitized real run
    would, which is what makes trace conformance checking possible.
    """

    def __init__(self, num_cells: int, *,
                 memory_per_cell: int = _MEMORY_PER_CELL,
                 trace_capacity: int | None = None) -> None:
        if num_cells < 1:
            raise ConfigurationError("need at least one cell")
        self.num_cells = num_cells
        self.memory_per_cell = memory_per_cell
        self.mem = [np.zeros(memory_per_cell, dtype=np.uint8)
                    for _ in range(num_cells)]
        self._heap_next = [_align(flag_area_end(), _HEAP_ALIGN)] * num_cells
        self._private_next = [memory_per_cell] * num_cells
        kwargs = {} if trace_capacity is None else {
            "capacity": trace_capacity}
        self.trace = TraceBuffer(num_pes=num_cells, **kwargs)
        self.world_group = Group(gid=0, members=tuple(range(num_cells)))
        self.rings: list[deque[_Message]] = [deque()
                                             for _ in range(num_cells)]
        self._serial = 0
        self._barriers: dict[int, _SymBarrier] = {}
        self._reductions: dict[int, _SymReduction] = {}
        self._registers: list[dict[int, int]] = [dict()
                                                 for _ in range(num_cells)]
        self.progress = 0
        #: pe -> ("flag_wait"|"barrier"|"reduce"|"recv"|"creg", ...details)
        self.blocked: dict[int, tuple] = {}
        #: event seq -> (file, line) call site.
        self.sites: dict[int, tuple[str, int]] = {}
        #: stride call site -> set of remote-side (items, skip) observed.
        self.stride_sites: dict[tuple[str, int], set[tuple[int, int]]] = {}
        self.results: dict[int, Any] = {}
        self.deadlocked = False

    # -- memory --------------------------------------------------------

    def alloc_array(self, pe: int, shape: int | tuple[int, ...],
                    dtype: Any, align: int = _HEAP_ALIGN) -> LocalArray:
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
        data = self.mem[pe][addr:addr + nbytes].view(dtype).reshape(shape)
        return LocalArray(data=data, addr=addr)

    def alloc_private(self, pe: int, nbytes: int,
                      align: int = _HEAP_ALIGN) -> LocalArray:
        if nbytes <= 0:
            raise ConfigurationError("private allocation must be non-empty")
        addr = self._private_next[pe] - nbytes
        addr -= addr % align
        if addr < self._heap_next[pe]:
            raise ConfigurationError(
                f"cell {pe} out of memory: private area would reach {addr} "
                f"against the heap at {self._heap_next[pe]}")
        self._private_next[pe] = addr
        return LocalArray(data=self.mem[pe][addr:addr + nbytes], addr=addr)

    # -- flags ---------------------------------------------------------

    def flag_value(self, pe: int, addr: int) -> int:
        return int(self.mem[pe][addr:addr + WORD_BYTES]
                   .view(np.int32)[0])

    def flag_add(self, pe: int, addr: int, delta: int = 1) -> None:
        view = self.mem[pe][addr:addr + WORD_BYTES].view(np.int32)
        view[0] += delta

    def flag_write(self, pe: int, addr: int, value: int) -> None:
        self.mem[pe][addr:addr + WORD_BYTES].view(np.int32)[0] = value

    # -- byte transfer (the DMA engines, minus time) -------------------

    def _gather(self, pe: int, addr: int, spec: StrideSpec) -> bytes:
        if spec.total_bytes == 0:
            return b""
        mem = self.mem[pe]
        if spec.count == 1 or spec.skip == spec.item_size:
            span = spec.item_size * spec.count
            self._check_span(pe, addr, span)
            return mem[addr:addr + span].tobytes()
        chunks = []
        for i in range(spec.count):
            start = addr + i * spec.skip
            self._check_span(pe, start, spec.item_size)
            chunks.append(mem[start:start + spec.item_size].tobytes())
        return b"".join(chunks)

    def _scatter(self, pe: int, addr: int, spec: StrideSpec,
                 data: bytes) -> None:
        if spec.total_bytes == 0:
            return
        mem = self.mem[pe]
        if spec.count == 1 or spec.skip == spec.item_size:
            span = spec.item_size * spec.count
            self._check_span(pe, addr, span)
            mem[addr:addr + span] = np.frombuffer(data[:span],
                                                  dtype=np.uint8)
            return
        for i in range(spec.count):
            start = addr + i * spec.skip
            lo = i * spec.item_size
            self._check_span(pe, start, spec.item_size)
            mem[start:start + spec.item_size] = np.frombuffer(
                data[lo:lo + spec.item_size], dtype=np.uint8)

    def _check_span(self, pe: int, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.memory_per_cell:
            raise CommunicationError(
                f"transfer touches [{addr}, {addr + nbytes}) outside cell "
                f"{pe}'s {self.memory_per_cell}-byte memory")

    # -- synchronization state machines --------------------------------

    def note_progress(self) -> None:
        self.progress += 1

    def barrier_arrive(self, group: Group, pe: int) -> int:
        state = self._barriers.get(group.gid)
        if state is None:
            state = _SymBarrier(group.members)
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
        if all(m in state.arrived for m in state.members):
            state.arrived.clear()
            state.generation += 1
            self.progress += 1
        return generation

    def barrier_passed(self, gid: int, generation: int) -> bool:
        state = self._barriers.get(gid)
        return state is not None and state.generation > generation

    def reduce(self, group: Group, pe: int, value: Any,
               op: str) -> Generator[None, None, Any]:
        if pe not in group:
            raise CommunicationError(
                f"cell {pe} reducing with group {group.gid} it does not "
                "belong to")
        state = self._reductions.get(group.gid)
        if state is None:
            state = _SymReduction(group.members)
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
        if all(m in slot for m in state.members):
            # Combine in member order, exactly as the real machine does,
            # so data-dependent loops take identical trip counts.
            contributions = [slot[m] for m in state.members]
            op_used = state.ops.pop(generation)
            result = contributions[0]
            for contribution in contributions[1:]:
                result = _combine_values(op_used, result, contribution)
            state.results[generation] = result
            state.fetches[generation] = 0
            del state.slots[generation]
            self.progress += 1
        while generation not in state.results:
            self.blocked[pe] = ("reduce", group.gid, group.members)
            yield
        self.blocked.pop(pe, None)
        self.note_progress()
        result = state.results[generation]
        state.fetches[generation] += 1
        if state.fetches[generation] >= len(state.members):
            del state.results[generation]
            del state.fetches[generation]
        return result

    # -- two-sided messages --------------------------------------------

    def deposit(self, dst: int, message: _Message) -> None:
        self.rings[dst].append(message)
        self.note_progress()

    def take(self, pe: int, src: int | None,
             context: int | None) -> _Message | None:
        ring = self.rings[pe]
        for i, msg in enumerate(ring):
            if src is not None and msg.src != src:
                continue
            if context is not None and msg.context != context:
                continue
            del ring[i]
            return msg
        return None

    def next_serial(self) -> int:
        self._serial += 1
        return self._serial

    # -- program execution ---------------------------------------------

    def run(self, program: Callable[..., Any],
            **params: Any) -> dict[int, Any]:
        """Concolically execute ``program`` on every cell.

        Round-robin scheduling in ascending pe order, one resumption per
        pass; a pass in which no cell makes progress and none finishes
        is a wedged machine — recorded (with each cell's blocked state)
        rather than raised, because a deadlock is a *finding* here.
        """
        contexts = [SymbolicContext(self, pe)
                    for pe in range(self.num_cells)]
        generators: dict[int, Any] = {}
        for pe, ctx in enumerate(contexts):
            outcome = program(ctx, **params)
            if inspect.isgenerator(outcome):
                generators[pe] = outcome
            else:
                self.results[pe] = outcome
        stalled = 0
        while generators:
            before = self.progress
            finished: list[int] = []
            for pe in sorted(generators):
                try:
                    next(generators[pe])
                except StopIteration as stop:
                    self.results[pe] = stop.value
                    finished.append(pe)
            for pe in finished:
                del generators[pe]
            if finished or self.progress != before:
                stalled = 0
            else:
                stalled += 1
            if stalled >= 2:
                self.deadlocked = True
                break
        return self.results


class SymbolicContext:
    """The :class:`~repro.machine.program.CellContext` duck type the
    analyzer hands to programs.

    Event emission mirrors the real context field for field, and byte
    footprints are always annotated (the static analyzer *is* the
    sanitizer's compile-time twin).  Write-through page binding is the
    one unsupported operation: its traffic depends on page-residency
    state the static model deliberately leaves out.
    """

    def __init__(self, machine: SymbolicMachine, pe: int) -> None:
        self.machine = machine
        self.pe = pe
        self._next_flag = 0
        self.ack_flag = self.alloc_flag()
        self.acks = AckTracker(self.ack_flag, policy=AckPolicy.EVERY_PUT)
        self._wt_flag = self.alloc_flag()

    # -- introspection -------------------------------------------------

    @property
    def num_cells(self) -> int:
        return self.machine.num_cells

    @property
    def world(self) -> Group:
        return self.machine.world_group

    def _trace(self, kind: EventKind, **fields: Any) -> TraceEvent:
        ev = self.machine.trace.record(
            TraceEvent(kind, pe=self.pe, **fields))
        self.machine.sites[ev.seq] = _caller_site()
        return ev

    # -- memory and flags ----------------------------------------------

    def alloc(self, shape: int | tuple[int, ...],
              dtype: Any = np.float64) -> LocalArray:
        return self.machine.alloc_array(self.pe, shape, dtype)

    def alloc_flag(self) -> Flag:
        if self._next_flag >= MAX_FLAGS_PER_PE:
            raise ConfigurationError("flag area exhausted")
        flag = Flag(index=self._next_flag, owner=self.pe)
        self._next_flag += 1
        return flag

    def flag_read(self, flag: Flag) -> int:
        return self.machine.flag_value(self.pe, flag.addr)

    def flag_clear(self, flag: Flag) -> None:
        self.machine.flag_write(self.pe, flag.addr, 0)

    # -- computation charging ------------------------------------------

    def compute(self, work_us: float) -> None:
        if work_us < 0:
            raise ConfigurationError("work must be non-negative")
        if work_us:
            self._trace(EventKind.COMPUTE, work=float(work_us))

    def compute_flops(self, flops: float) -> None:
        self.compute(flops * SPARC_US_PER_FLOP)

    def rtsys(self, work_us: float) -> None:
        if work_us < 0:
            raise ConfigurationError("work must be non-negative")
        if work_us:
            self._trace(EventKind.RTSYS, work=float(work_us))

    def phase(self, label: str) -> None:
        self._trace(EventKind.PHASE,
                    flag=self.machine.trace.phase_id(str(label)))

    # -- PUT / GET -----------------------------------------------------

    def _annotate(self, ev: TraceEvent, kind: EventKind, raddr: int,
                  laddr: int, send_spec: StrideSpec,
                  recv_spec: StrideSpec) -> None:
        if kind is EventKind.PUT:
            rspec, lspec = recv_spec, send_spec
        else:
            rspec, lspec = send_spec, recv_spec
        if rspec.total_bytes:
            ev.raddr = raddr
            ev.rchunk = rspec.item_size
            ev.rcount = rspec.count
            ev.rstep = rspec.skip
        if lspec.total_bytes:
            ev.laddr = laddr
            ev.lchunk = lspec.item_size
            ev.lcount = lspec.count
            ev.lstep = lspec.skip

    def _note_stride(self, remote: ElementStride) -> None:
        site = _caller_site()
        self.machine.stride_sites.setdefault(site, set()).add(
            (remote.items_per_block, remote.skip))

    def put(self, dst: int, dest: LocalArray, src: LocalArray, *,
            count: int | None = None, dest_offset: int = 0,
            src_offset: int = 0, send_flag: Flag | None = None,
            recv_flag: Flag | None = None, ack: bool = False) -> None:
        if count is None:
            count = src.size - src_offset
        nbytes = count * src.itemsize
        self._check_transfer(dest, src, dest_offset, src_offset, count)
        raddr = dest.element_addr(dest_offset)
        laddr = src.element_addr(src_offset)
        spec = StrideSpec.contiguous(nbytes)
        ev = self._trace(
            EventKind.PUT, partner=dst, size=nbytes,
            send_flag=send_flag.id_on(self.pe) if send_flag else 0,
            recv_flag=recv_flag.id_on(dst) if recv_flag else 0,
        )
        self._annotate(ev, EventKind.PUT, raddr, laddr, spec, spec)
        self._execute_put(dst, raddr, laddr, spec, spec,
                          send_flag, recv_flag)
        if ack and self.acks.record_put(dst):
            self.ack_get(dst)

    def put_stride(self, dst: int, dest: LocalArray, src: LocalArray,
                   send_stride: ElementStride, recv_stride: ElementStride, *,
                   dest_offset: int = 0, src_offset: int = 0,
                   send_flag: Flag | None = None,
                   recv_flag: Flag | None = None, ack: bool = False) -> None:
        if send_stride.total_elements != recv_stride.total_elements:
            raise CommunicationError(
                f"stride element counts disagree: send moves "
                f"{send_stride.total_elements}, recv expects "
                f"{recv_stride.total_elements}")
        self._note_stride(recv_stride)
        nbytes = send_stride.total_elements * src.itemsize
        raddr = dest.element_addr(dest_offset)
        laddr = src.element_addr(src_offset)
        send_spec = send_stride.to_bytes(src.itemsize)
        recv_spec = recv_stride.to_bytes(dest.itemsize)
        ev = self._trace(
            EventKind.PUT, partner=dst, size=nbytes, stride=True,
            send_flag=send_flag.id_on(self.pe) if send_flag else 0,
            recv_flag=recv_flag.id_on(dst) if recv_flag else 0,
        )
        self._annotate(ev, EventKind.PUT, raddr, laddr, send_spec,
                       recv_spec)
        self._execute_put(dst, raddr, laddr, send_spec, recv_spec,
                          send_flag, recv_flag)
        if ack and self.acks.record_put(dst):
            self.ack_get(dst)

    def _execute_put(self, dst: int, raddr: int, laddr: int,
                     send_spec: StrideSpec, recv_spec: StrideSpec,
                     send_flag: Flag | None,
                     recv_flag: Flag | None) -> None:
        data = self.machine._gather(self.pe, laddr, send_spec)
        self.machine._scatter(dst, raddr, recv_spec, data)
        if send_flag is not None:
            self.machine.flag_add(self.pe, send_flag.addr)
        if recv_flag is not None:
            self.machine.flag_add(dst, recv_flag.addr)
        self.machine.note_progress()

    def get(self, src_pe: int, remote: LocalArray, local: LocalArray, *,
            count: int | None = None, remote_offset: int = 0,
            local_offset: int = 0, send_flag: Flag | None = None,
            recv_flag: Flag | None = None) -> None:
        if count is None:
            count = local.size - local_offset
        nbytes = count * local.itemsize
        self._check_transfer(local, remote, local_offset, remote_offset,
                             count)
        raddr = remote.element_addr(remote_offset)
        laddr = local.element_addr(local_offset)
        spec = StrideSpec.contiguous(nbytes)
        ev = self._trace(
            EventKind.GET, partner=src_pe, size=nbytes,
            send_flag=send_flag.id_on(self.pe) if send_flag else 0,
            recv_flag=recv_flag.id_on(self.pe) if recv_flag else 0,
        )
        self._annotate(ev, EventKind.GET, raddr, laddr, spec, spec)
        self._execute_get(src_pe, raddr, laddr, spec, spec,
                          send_flag, recv_flag)

    def get_stride(self, src_pe: int, remote: LocalArray, local: LocalArray,
                   remote_stride: ElementStride,
                   local_stride: ElementStride, *,
                   remote_offset: int = 0, local_offset: int = 0,
                   send_flag: Flag | None = None,
                   recv_flag: Flag | None = None) -> None:
        if remote_stride.total_elements != local_stride.total_elements:
            raise CommunicationError(
                f"stride element counts disagree: remote provides "
                f"{remote_stride.total_elements}, local expects "
                f"{local_stride.total_elements}")
        self._note_stride(remote_stride)
        nbytes = remote_stride.total_elements * local.itemsize
        raddr = remote.element_addr(remote_offset)
        laddr = local.element_addr(local_offset)
        send_spec = remote_stride.to_bytes(remote.itemsize)
        recv_spec = local_stride.to_bytes(local.itemsize)
        ev = self._trace(
            EventKind.GET, partner=src_pe, size=nbytes, stride=True,
            send_flag=send_flag.id_on(self.pe) if send_flag else 0,
            recv_flag=recv_flag.id_on(self.pe) if recv_flag else 0,
        )
        self._annotate(ev, EventKind.GET, raddr, laddr, send_spec,
                       recv_spec)
        self._execute_get(src_pe, raddr, laddr, send_spec, recv_spec,
                          send_flag, recv_flag)

    def _execute_get(self, src_pe: int, raddr: int, laddr: int,
                     send_spec: StrideSpec, recv_spec: StrideSpec,
                     send_flag: Flag | None,
                     recv_flag: Flag | None) -> None:
        data = self.machine._gather(src_pe, raddr, send_spec)
        self.machine._scatter(self.pe, laddr, recv_spec, data)
        if send_flag is not None:
            self.machine.flag_add(self.pe, send_flag.addr)
        if recv_flag is not None:
            self.machine.flag_add(self.pe, recv_flag.addr)
        self.machine.note_progress()

    def _check_transfer(self, dest: LocalArray, src: LocalArray,
                        dest_offset: int, src_offset: int,
                        count: int) -> None:
        if count < 0:
            raise CommunicationError("negative transfer count")
        if dest.itemsize != src.itemsize:
            raise CommunicationError(
                f"transfer between arrays of different item sizes "
                f"({src.itemsize} vs {dest.itemsize})")
        if src_offset + count > src.size or dest_offset + count > dest.size:
            raise CommunicationError("transfer exceeds array bounds")

    # -- acknowledge idiom and completion ------------------------------

    def ack_get(self, dst: int) -> None:
        self._trace(
            EventKind.GET, partner=dst, size=0, is_ack=True,
            recv_flag=self.ack_flag.id_on(self.pe),
        )
        self.machine.flag_add(self.pe, self.ack_flag.addr)
        self.machine.note_progress()

    def finish_puts(self) -> Iterator[None]:
        for dst in self.acks.destinations_to_ack():
            self.ack_get(dst)
        yield from self.flag_wait(self.ack_flag, self.acks.expected_acks)
        self.acks.reset_phase()

    def flag_wait(self, flag: Flag, target: int) -> Iterator[None]:
        self._trace(EventKind.FLAG_WAIT, flag=flag.id_on(self.pe),
                    target=int(target))
        machine = self.machine
        while machine.flag_value(self.pe, flag.addr) < target:
            machine.blocked[self.pe] = (
                "flag_wait", flag.id_on(self.pe), int(target),
                machine.flag_value(self.pe, flag.addr))
            yield
        machine.blocked.pop(self.pe, None)
        machine.note_progress()

    # -- SEND / RECEIVE ------------------------------------------------

    def send(self, dst: int, data: np.ndarray | bytes, *,
             context: int = 0) -> None:
        payload = (data.tobytes() if isinstance(data, np.ndarray)
                   else bytes(data))
        serial = self.machine.next_serial()
        self._trace(EventKind.SEND, partner=dst, size=len(payload),
                    msg_id=serial)
        self.machine.deposit(dst, _Message(src=self.pe, data=payload,
                                           context=context, serial=serial))

    def recv(self, src: int | None = None, context: int | None = None,
             in_place: bool = False) -> Generator[None, None, _Message]:
        machine = self.machine
        while True:
            packet = machine.take(self.pe, src, context)
            if packet is not None:
                break
            machine.blocked[self.pe] = ("recv", src, context)
            yield
        machine.blocked.pop(self.pe, None)
        machine.note_progress()
        self._trace(EventKind.RECV, partner=packet.src,
                    size=packet.payload_bytes, msg_id=packet.serial)
        return packet

    def recv_array(self, dtype: Any, src: int | None = None,
                   context: int | None = None
                   ) -> Generator[None, None, np.ndarray]:
        packet = yield from self.recv(src=src, context=context)
        return np.frombuffer(packet.data or b"", dtype=dtype).copy()

    # -- barrier and reductions ----------------------------------------

    def make_group(self, members: Iterable[int]) -> Group:
        key = tuple(sorted(set(int(m) for m in members)))
        gid = self.machine.trace.groups.intern(key)
        return Group(gid=gid, members=key)

    def barrier(self, group: Group | None = None) -> Iterator[None]:
        grp = group or self.world
        self._trace(EventKind.BARRIER, group=grp.gid, group_size=grp.size)
        machine = self.machine
        generation = machine.barrier_arrive(grp, self.pe)
        while not machine.barrier_passed(grp.gid, generation):
            machine.blocked[self.pe] = ("barrier", grp.gid, grp.members)
            yield
        machine.blocked.pop(self.pe, None)
        machine.note_progress()

    def gop(self, value: float, op: str = "sum",
            group: Group | None = None) -> Generator[None, None, float]:
        grp = group or self.world
        self._trace(EventKind.GOP, group=grp.gid, group_size=grp.size,
                    size=8)
        result = yield from self.machine.reduce(grp, self.pe,
                                                float(value), op)
        return result

    def vgop(self, vector: np.ndarray, op: str = "sum",
             group: Group | None = None
             ) -> Generator[None, None, np.ndarray]:
        grp = group or self.world
        self._trace(EventKind.VGOP, group=grp.gid, group_size=grp.size,
                    size=int(vector.nbytes))
        result = yield from self.machine.reduce(
            grp, self.pe, np.array(vector, copy=True), op)
        return np.array(result, copy=True)

    # -- shared memory and communication registers ---------------------

    def remote_store_word(self, dst: int, array: LocalArray,
                          offset: int, value: float) -> None:
        scratch = np.array([value], dtype=array.dtype)
        raddr = array.element_addr(offset)
        ev = self._trace(EventKind.REMOTE_STORE, partner=dst,
                         size=scratch.nbytes)
        ev.raddr = raddr
        ev.rchunk = scratch.nbytes
        ev.rcount = 1
        ev.rstep = max(scratch.nbytes, 1)
        self.machine._scatter(dst, raddr,
                              StrideSpec.contiguous(scratch.nbytes),
                              scratch.tobytes())
        self.machine.note_progress()

    def remote_load_word(self, src_pe: int, array: LocalArray,
                         offset: int) -> float:
        itemsize = array.itemsize
        raddr = array.element_addr(offset)
        ev = self._trace(EventKind.REMOTE_LOAD, partner=src_pe,
                         size=itemsize)
        ev.raddr = raddr
        ev.rchunk = itemsize
        ev.rcount = 1
        ev.rstep = max(itemsize, 1)
        raw = self.machine._gather(src_pe, raddr,
                                   StrideSpec.contiguous(itemsize))
        self.machine.note_progress()
        return np.frombuffer(raw, dtype=array.dtype)[0]

    def creg_store(self, dst: int, index: int, value: int) -> None:
        self._trace(EventKind.CREG_STORE, partner=dst, size=4)
        self.machine._registers[dst][index] = value
        self.machine.note_progress()

    def creg_load(self, index: int) -> Generator[None, None, int]:
        self._trace(EventKind.CREG_LOAD, partner=self.pe, size=4)
        machine = self.machine
        while index not in machine._registers[self.pe]:
            machine.blocked[self.pe] = ("creg_load", index)
            yield
        machine.blocked.pop(self.pe, None)
        machine.note_progress()
        return machine._registers[self.pe].pop(index)

    # -- checkpoint sites ----------------------------------------------

    def ckpt_state(self, **defaults: Any) -> CkptState:
        """The static model always runs fresh (no snapshots to resume)."""
        return CkptState(fresh=True, fields=dict(defaults))

    def checkpoint(self, *, barrier: bool = False,
                   group: Group | None = None) -> Iterator[None]:
        """Checkpoint sites are trace-invisible when disarmed, and the
        static model never arms a gate — only the subsumed barrier (if
        any) is executed and traced, exactly as on the real machine."""
        if barrier:
            yield from self.barrier(group)

    # -- unsupported ---------------------------------------------------

    def wt_bind(self, home: int, array: LocalArray) -> Iterator[None]:
        raise ConfigurationError(
            "write-through page binding depends on page-residency state "
            "outside the static communication model")

    def wt_refresh(self, handle: Any, *, initial: bool = False
                   ) -> Iterator[None]:
        raise ConfigurationError(
            "write-through page refresh depends on page-residency state "
            "outside the static communication model")


# ----------------------------------------------------------------------
# Analysis results
# ----------------------------------------------------------------------

@dataclass
class CommRun:
    """One concolic execution at a fixed machine size."""

    subject: str
    num_cells: int
    params: dict[str, Any]
    machine: SymbolicMachine

    @property
    def trace(self) -> TraceBuffer:
        return self.machine.trace

    @property
    def deadlocked(self) -> bool:
        return self.machine.deadlocked

    @property
    def results(self) -> dict[int, Any]:
        return self.machine.results

    def site_of(self, seq: int) -> tuple[str, int] | None:
        site = self.machine.sites.get(seq)
        return _rel_site(site) if site is not None else None

    def kind_totals(self) -> dict[str, tuple[int, int]]:
        return kind_totals(self.trace)


#: Timing/annotation records, not communication; both the graph and the
#: conformance comparison skip them.
UNTIMED_KINDS = frozenset({EventKind.COMPUTE, EventKind.RTSYS,
                           EventKind.PHASE})


def kind_totals(trace: TraceBuffer) -> dict[str, tuple[int, int]]:
    """(count, bytes) per event-kind label over a whole trace.

    COMPUTE/RTSYS/PHASE are excluded; stride transfers are labelled
    ``PUTS``/``GETS`` as in the paper's Table 3, zero-byte acknowledge
    GETs as ``ACK``.
    """
    totals: dict[str, list[int]] = {}
    for pe in range(trace.num_pes):
        for ev in trace.events_for(pe):
            if ev.kind in UNTIMED_KINDS:
                continue
            label = _kind_label(ev)
            bucket = totals.setdefault(label, [0, 0])
            bucket[0] += 1
            bucket[1] += ev.size
    return {label: (c, b) for label, (c, b) in totals.items()}


def _kind_label(ev: TraceEvent) -> str:
    if ev.kind is EventKind.PUT and ev.stride:
        return "PUTS"
    if ev.kind is EventKind.GET and ev.stride:
        return "GETS"
    if ev.kind is EventKind.GET and ev.is_ack:
        return "ACK"
    return ev.kind.name


def analyze_program(program: Callable[..., Any], num_cells: int,
                    params: dict[str, Any] | None = None, *,
                    subject: str = "program",
                    memory_per_cell: int = _MEMORY_PER_CELL) -> CommRun:
    """Concolically execute ``program`` at one machine size."""
    machine = SymbolicMachine(num_cells, memory_per_cell=memory_per_cell)
    machine.run(program, **(params or {}))
    return CommRun(subject=subject, num_cells=num_cells,
                   params=dict(params or {}), machine=machine)


# ----------------------------------------------------------------------
# The static communication graph
# ----------------------------------------------------------------------

@dataclass
class _EdgeObs:
    count: int = 0
    nbytes: int = 0
    pairs: set[tuple[int, int]] = field(default_factory=set)


class CommGraph:
    """The extracted communication graph, generalized over P.

    Nodes are synchronization points (barrier / gop / vgop / flag wait
    call sites), edges are PUT/GET/SEND call sites annotated with a
    symbolic partner expression and closed forms for message count and
    byte volume as functions of P.
    """

    def __init__(self, subject: str) -> None:
        self.subject = subject
        #: (label, file, line) -> {P: observation}
        self.edges: dict[tuple[str, str, int], dict[int, _EdgeObs]] = {}
        #: (label, file, line) -> {P: count}
        self.nodes: dict[tuple[str, str, int], dict[int, int]] = {}
        #: {P: {label: (count, bytes)}}
        self.totals: dict[int, dict[str, tuple[int, int]]] = {}

    def add_run(self, run: CommRun) -> None:
        p = run.num_cells
        self.totals[p] = run.kind_totals()
        for pe in range(run.num_cells):
            for ev in run.trace.events_for(pe):
                site = run.site_of(ev.seq)
                if site is None:
                    continue
                key = (_kind_label(ev), site[0], site[1])
                if ev.kind in _EDGE_KINDS:
                    obs = self.edges.setdefault(key, {}).setdefault(
                        p, _EdgeObs())
                    obs.count += 1
                    obs.nbytes += ev.size
                    obs.pairs.add((pe, ev.partner))
                elif ev.kind in _NODE_KINDS:
                    counts = self.nodes.setdefault(key, {})
                    counts[p] = counts.get(p, 0) + 1

    @property
    def sampled(self) -> tuple[int, ...]:
        return tuple(sorted(self.totals))

    def total_forms(self, label: str) -> tuple[ClosedForm, ClosedForm]:
        """(count closed form, bytes closed form) for one event label."""
        counts = {p: kinds.get(label, (0, 0))[0]
                  for p, kinds in self.totals.items()}
        nbytes = {p: kinds.get(label, (0, 0))[1]
                  for p, kinds in self.totals.items()}
        return fit_closed_form(counts), fit_closed_form(nbytes)

    def labels(self) -> list[str]:
        return sorted({label for kinds in self.totals.values()
                       for label in kinds})

    def summary(self, max_edges: int = 24) -> list[str]:
        """Human-readable graph description for report notes and docs."""
        lines: list[str] = []
        for label in self.labels():
            count_form, bytes_form = self.total_forms(label)
            lines.append(
                f"{label}: count = {count_form.expression}, "
                f"bytes = {bytes_form.expression}")
        edge_keys = sorted(self.edges)
        for key in edge_keys[:max_edges]:
            label, file, line = key
            per_p = self.edges[key]
            pattern = infer_partner_pattern(
                {p: sorted(obs.pairs) for p, obs in per_p.items()})
            counts = {p: obs.count for p, obs in per_p.items()}
            form = fit_closed_form(counts)
            lines.append(
                f"edge {label} {file}:{line}: partner {pattern}, "
                f"count = {form.expression}")
        if len(edge_keys) > max_edges:
            lines.append(
                f"... {len(edge_keys) - max_edges} more edge sites")
        for key in sorted(self.nodes):
            label, file, line = key
            form = fit_closed_form(
                {p: c for p, c in self.nodes[key].items()})
            lines.append(
                f"sync {label} {file}:{line}: count = {form.expression}")
        return lines


# ----------------------------------------------------------------------
# Scale-generic analyses over one run
# ----------------------------------------------------------------------

def _group_desc(members: tuple[int, ...], num_cells: int) -> str:
    if len(members) == num_cells:
        return "all cells"
    if len(members) <= 6:
        return f"cells {list(members)}"
    return (f"{len(members)} cells [{members[0]}, {members[1]}, ... "
            f"{members[-1]}]")


def _divergence_findings(run: CommRun) -> list[Diagnostic]:
    """Compare every group member's collective subsequence."""
    sequences: dict[tuple[int, ...],
                    dict[int, list[TraceEvent]]] = {}
    for pe in range(run.num_cells):
        for ev in run.trace.events_for(pe):
            if ev.kind not in _COLLECTIVE_KINDS:
                continue
            members = run.trace.groups.members(ev.group)
            sequences.setdefault(members, {}).setdefault(
                pe, []).append(ev)
    out: list[Diagnostic] = []
    for members, per_member in sorted(sequences.items()):
        signature = {
            pe: [(ev.kind.name, ev.size) for ev in per_member.get(pe, [])]
            for pe in members
        }
        reference_pe = members[0]
        reference = signature[reference_pe]
        for pe in members[1:]:
            if signature[pe] == reference:
                continue
            mine = signature[pe]
            upto = min(len(reference), len(mine))
            pos = next((i for i in range(upto)
                        if reference[i] != mine[i]), upto)
            if pos < upto:
                what = (f"at collective #{pos} cell {reference_pe} "
                        f"issues {reference[pos][0]} while cell {pe} "
                        f"issues {mine[pos][0]}")
            else:
                what = (f"cell {reference_pe} issues {len(reference)} "
                        f"collectives but cell {pe} issues {len(mine)}")
            events = []
            for who in (reference_pe, pe):
                evs = per_member.get(who, [])
                if pos < len(evs):
                    events.append(EventRef(pe=who, seq=evs[pos].seq,
                                           kind=evs[pos].kind.name))
            site = None
            for ref in events:
                site = run.site_of(ref.seq)
                if site is not None:
                    break
            out.append(Diagnostic(
                code="COMM-DIVERGENCE",
                severity=SEVERITY_ERROR,
                message=(
                    f"collective sequences diverge within "
                    f"{_group_desc(members, run.num_cells)}: {what}"),
                events=tuple(events),
                file=site[0] if site else None,
                line=site[1] if site else None,
            ))
            break  # one finding per group
    return out


def _blocked_findings(run: CommRun,
                      have_divergence: bool) -> list[Diagnostic]:
    """Map the blocked states of a wedged machine onto findings."""
    if not run.deadlocked:
        return []
    out: list[Diagnostic] = []
    flag_cells = [(pe, state) for pe, state in
                  sorted(run.machine.blocked.items())
                  if state[0] == "flag_wait"]
    for pe, (_, flag_id, target, current) in flag_cells:
        ref: tuple[EventRef, ...] = ()
        site = None
        for ev in reversed(list(run.trace.events_for(pe))):
            if ev.kind is EventKind.FLAG_WAIT and ev.flag == flag_id:
                ref = (EventRef(pe=pe, seq=ev.seq, kind=ev.kind.name),)
                site = run.site_of(ev.seq)
                break
        out.append(Diagnostic(
            code="COMM-UNMATCHED-FLAG",
            severity=SEVERITY_ERROR,
            message=(
                f"cell {pe} waits for flag {flag_id} to reach {target} "
                f"but the program only ever produces {current} "
                f"increment(s)"),
            events=ref,
            home=pe,
            file=site[0] if site else None,
            line=site[1] if site else None,
        ))
    by_shape: dict[tuple, list[int]] = {}
    for pe, state in sorted(run.machine.blocked.items()):
        if state[0] in ("barrier", "reduce", "recv", "creg_load"):
            by_shape.setdefault(state, []).append(pe)
    for state, cells in sorted(by_shape.items()):
        if state[0] in ("barrier", "reduce") and have_divergence:
            continue  # the divergence finding names the root cause
        if state[0] in ("barrier", "reduce"):
            members = state[2]
            waiting = _group_desc(tuple(cells), run.num_cells)
            what = (f"{waiting} deadlock at a {state[0]} of "
                    f"{_group_desc(members, run.num_cells)} that the "
                    f"remaining members never join")
        elif state[0] == "recv":
            src = "any cell" if state[1] is None else f"cell {state[1]}"
            what = (f"{_group_desc(tuple(cells), run.num_cells)} "
                    f"deadlock in RECEIVE from {src} "
                    f"(context={state[2]}) with no matching SEND")
        else:
            what = (f"{_group_desc(tuple(cells), run.num_cells)} "
                    f"deadlock loading communication register "
                    f"{state[1]} that is never stored")
        out.append(Diagnostic(
            code="COMM-DIVERGENCE",
            severity=SEVERITY_ERROR,
            message=what,
            home=cells[0],
        ))
    if not out and not have_divergence:
        out.append(Diagnostic(
            code="COMM-DIVERGENCE",
            severity=SEVERITY_ERROR,
            message="symbolic execution wedged with no runnable cell",
        ))
    return out


def _overlap_findings(run: CommRun, subject: str) -> list[Diagnostic]:
    """Race-candidate footprints on the predicted trace."""
    from repro.check.hb import build_happens_before
    from repro.check.races import race_report

    try:
        hb = build_happens_before(run.trace)
        races = race_report(hb, subject)
    except Exception as exc:  # pragma: no cover - defensive
        return [Diagnostic(
            code="COMM-OVERLAP",
            severity=SEVERITY_ERROR,
            message=f"footprint analysis failed on predicted trace: "
                    f"{exc}")]
    out = []
    for diag in races.diagnostics:
        if not diag.code.startswith("RACE-"):
            continue
        out.append(Diagnostic(
            code="COMM-OVERLAP",
            severity=diag.severity,
            message=f"predicted {diag.code}: {diag.message}",
            events=diag.events,
            home=diag.home,
            addr_lo=diag.addr_lo,
            addr_hi=diag.addr_hi,
        ))
    return out


def _stride_findings(run: CommRun) -> list[Diagnostic]:
    out = []
    for site, shapes in sorted(run.machine.stride_sites.items()):
        skips = sorted({skip for _, skip in shapes})
        if len(skips) <= 1:
            continue
        file, line = _rel_site(site)
        out.append(Diagnostic(
            code="COMM-STRIDE",
            severity=SEVERITY_ERROR,
            message=(
                f"stride transfers issued here use {len(skips)} distinct "
                f"element skips {skips}; the 1-D hardware stride engine "
                f"needs one constant descriptor per transfer pattern"),
            file=file,
            line=line,
        ))
    return out


def run_findings(run: CommRun, subject: str) -> list[Diagnostic]:
    """All scale-generic findings for one concolic execution."""
    findings = _divergence_findings(run)
    findings.extend(_blocked_findings(run, bool(findings)))
    findings.extend(_overlap_findings(run, subject))
    findings.extend(_stride_findings(run))
    return findings


def _merge_findings(per_scale: list[tuple[int, Diagnostic]]
                    ) -> list[Diagnostic]:
    """Collapse per-P findings that share a root cause into one
    diagnostic listing every machine size that exhibits it."""
    grouped: dict[tuple, tuple[Diagnostic, list[int]]] = {}
    for p, diag in per_scale:
        key = (diag.code, diag.file, diag.line, diag.home,
               diag.addr_lo, diag.addr_hi)
        if key in grouped:
            grouped[key][1].append(p)
        else:
            grouped[key] = (diag, [p])
    out = []
    for diag, scales in grouped.values():
        at = ", ".join(str(p) for p in sorted(set(scales)))
        out.append(Diagnostic(
            code=diag.code,
            severity=diag.severity,
            message=f"{diag.message} (at P={at})",
            events=diag.events,
            home=diag.home,
            addr_lo=diag.addr_lo,
            addr_hi=diag.addr_hi,
            file=diag.file,
            line=diag.line,
        ))
    return out


def check_program(program: Callable[..., Any], scales: tuple[int, ...],
                  params: dict[str, Any] | None = None, *,
                  subject: str = "program",
                  memory_per_cell: int = _MEMORY_PER_CELL) -> CheckReport:
    """Scale-generic findings for one cell program.

    Concolically executes at every machine size in ``scales`` and merges
    findings that share a root cause into one diagnostic naming all the
    sizes that exhibit it — the entry point for checking arbitrary
    programs (the seeded-bug fixtures use it)."""
    per_scale: list[tuple[int, Diagnostic]] = []
    events = deadlocks = 0
    sizes = sorted(set(scales))
    for p in sizes:
        run = analyze_program(program, p, params, subject=subject,
                              memory_per_cell=memory_per_cell)
        events += run.trace.total_events
        deadlocks += int(run.deadlocked)
        per_scale.extend((p, d) for d in run_findings(run, subject))
    report = CheckReport(subject=subject)
    report.extend(_merge_findings(per_scale))
    report.stats["static_scales"] = len(sizes)
    report.stats["static_events"] = events
    report.stats["static_deadlocks"] = deadlocks
    return report.finalize()


# ----------------------------------------------------------------------
# App drivers
# ----------------------------------------------------------------------

def static_app_table() -> dict[str, tuple[Any, dict[str, Any]]]:
    """Workload name -> (program, analysis parameters).

    Parameters are fixed across machine sizes (only P varies between
    concolic samples — the requirement for closed-form fitting) and are
    chosen small but pattern-preserving, valid at every sampled P.
    """
    from repro.apps import cg, ep, ft, latency, matmul, scg, sp, tomcatv

    return {
        "EP": (ep.program, {"log2_pairs": 13}),
        "CG": (cg.program, {"n": 256, "outer": 2, "inner": 5}),
        "FT": (ft.program, {"shape": (64, 16, 16), "iters": 2}),
        "SP": (sp.program, {"shape": (128, 12, 12), "iters": 2}),
        "TC st": (tomcatv.program,
                  {"n": 65, "iters": 2, "use_stride": True}),
        "TC no st": (tomcatv.program,
                     {"n": 65, "iters": 2, "use_stride": False}),
        "MatMul": (matmul.program, {"n": 128}),
        "SCG": (scg.program, {"m": 64, "max_iters": 40}),
        "PingPong": (latency.ping_pong_program, {"iters": 64}),
        "RingShift": (latency.ring_shift_program, {"hops": 128}),
    }


#: Names the static sweep covers (9 distinct programs; TOMCATV appears
#: with and without hardware stride, as in the paper's tables).
STATIC_APPS = ("EP", "CG", "FT", "SP", "TC st", "TC no st", "MatMul",
               "SCG", "PingPong", "RingShift")


def static_params(name: str) -> tuple[Any, dict[str, Any]]:
    table = static_app_table()
    try:
        return table[name]
    except KeyError:
        raise ConfigurationError(
            f"no static analysis entry for app {name!r}; choose from "
            f"{list(STATIC_APPS)}") from None


def analyze_app(name: str, *,
                scales: tuple[int, ...] = DEFAULT_SCALES,
                samples: tuple[int, ...] = DEFAULT_SAMPLES,
                build_graph: bool = True,
                ) -> tuple[CheckReport, CommGraph | None,
                           dict[int, CommRun]]:
    """Full static analysis of one shipped app.

    Concolically executes at every machine size in ``samples`` (for
    closed-form fitting) and ``scales`` (for findings), extracts the
    communication graph, and aggregates scale-generic findings into one
    report.  Returns (report, graph, runs-by-P).
    """
    program, params = static_params(name)
    subject = f"static/{name}"
    sizes = sorted(set(scales) | (set(samples) if build_graph else set()))
    runs: dict[int, CommRun] = {}
    for p in sizes:
        runs[p] = analyze_program(program, p, params, subject=subject)
    graph: CommGraph | None = None
    if build_graph:
        graph = CommGraph(subject)
        for p in samples:
            graph.add_run(runs[p])
    per_scale = [(p, diag)
                 for p in scales
                 for diag in run_findings(runs[p], subject)]
    report = CheckReport(subject=subject)
    report.extend(_merge_findings(per_scale))
    report.stats["static_scales"] = len(scales)
    report.stats["static_events"] = sum(
        runs[p].trace.total_events for p in scales)
    report.stats["static_deadlocks"] = sum(
        int(runs[p].deadlocked) for p in scales)
    if graph is not None:
        for line in graph.summary():
            report.notes.append(f"graph: {line}")
    return report.finalize(), graph, runs
