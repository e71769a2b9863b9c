"""Static communication-graph analyzer: concolic SPMD interpretation.

The paper's compiler statically knows the PUT/GET communication pattern
of the program it generated; this module recovers that knowledge for our
SPMD programs.  A :class:`SymbolicMachine` abstractly executes a cell
program at several machine sizes — no hardware networks, no timing,
instant delivery, but byte-faithful memory and numerically identical
reductions — and records the same annotated trace the sanitizer would,
because :class:`SymbolicContext` is a back end of the one
:class:`~repro.machine.program.CellContext` front end, not a copy of it.
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
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

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
from repro.core import api as _paper_api
from repro.core.errors import ConfigurationError
from repro.core.stride import ElementStride
from repro.hardware.cell import boot_cells
from repro.hardware.msc import Command, CommandKind
from repro.machine import program as _front_end
from repro.machine import shmem as _shared_memory
from repro.machine.base import MachineBase
from repro.machine.config import MachineConfig
from repro.machine.program import CellContext, Group, LocalArray
from repro.network.packet import Packet, PacketKind
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

_MEMORY_PER_CELL = 16 * 1024 * 1024

#: Event kinds that form communication-graph edges.
_EDGE_KINDS = {EventKind.PUT, EventKind.GET, EventKind.SEND}
#: Event kinds that form synchronization nodes.
_NODE_KINDS = {EventKind.BARRIER, EventKind.GOP, EventKind.VGOP,
               EventKind.FLAG_WAIT}
_COLLECTIVE_KINDS = {EventKind.BARRIER, EventKind.GOP, EventKind.VGOP}

#: Files whose frames are the interface itself, not a call site of it.
_INTERFACE_FILES = frozenset(
    str(Path(file).resolve())
    for file in (__file__, _front_end.__file__, _paper_api.__file__,
                 _shared_memory.__file__))


def _caller_site() -> tuple[str, int]:
    """(file, line) of the nearest stack frame outside the interface's
    own modules — the app or runtime-library call site of a
    communication op."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename in _INTERFACE_FILES:
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


class SymbolicMachine(MachineBase):
    """An abstract AP1000+ for concolic analysis.

    The real machine's memory system (DRAM, MC flags, communication
    registers, ring buffers) and, through :class:`MachineBase`, its
    exact allocation arithmetic and collectives — so symmetric
    addresses and reduction results agree with a real run — but no
    MSC+ and no networks: a command's bytes land and its flags count
    the moment it is issued.  Programs run on it through
    :class:`SymbolicContext`, so every operation records the same
    :class:`TraceEvent` a sanitized real run would, which is what makes
    trace conformance checking possible.
    """

    sanitize = True

    def __init__(self, num_cells: int, *,
                 memory_per_cell: int = _MEMORY_PER_CELL) -> None:
        config = MachineConfig(num_cells=num_cells,
                               memory_per_cell=memory_per_cell,
                               shards=1)
        super().__init__(config,
                         boot_cells(num_cells, None, memory_per_cell))
        self.num_cells = num_cells
        self._serial = 0
        #: event seq -> (file, line) call site.
        self.sites: dict[int, tuple[str, int]] = {}
        #: stride call site -> set of remote-side (items, skip) observed.
        self.stride_sites: dict[tuple[str, int], set[tuple[int, int]]] = {}
        self.results: dict[int, Any] = {}
        self.deadlocked = False

    # -- distributed shared memory, minus the wire ----------------------

    def remote_store(self, src: int, dst: int, remote_addr: int,
                     data: bytes) -> None:
        self.alloc_scratch(src, data)    # the heap moves as on the real one
        self.hw_cells[dst].memory.write(remote_addr, data)
        self.note_progress()

    def remote_load(self, src: int, target: int, remote_addr: int,
                    size: int) -> bytes:
        self.alloc_scratch(src, bytes(size))
        self.note_progress()
        return self.hw_cells[target].memory.read(remote_addr, size)

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


class SymbolicContext(CellContext):
    """The analyzer's back end of :class:`CellContext`.

    The front end is the real one; only the seam differs.  Events also
    note their call site, commands and messages are delivered instantly,
    and stride transfers note their element skips for ``COMM-STRIDE``.
    Byte footprints are always annotated (the machine is ``sanitize``:
    the static analyzer *is* the sanitizer's compile-time twin).
    Write-through page binding is the one unsupported operation: its
    traffic depends on page-residency state the static model
    deliberately leaves out.
    """

    machine: SymbolicMachine

    def __init__(self, machine: SymbolicMachine, pe: int) -> None:
        super().__init__(machine, pe)
        self._record = self._record_site

    def _record_site(self, *row: Any, **fields: Any) -> int:
        seq = self.machine.trace.append(*row, **fields)
        self.machine.sites[seq] = _caller_site()
        return seq

    def _issue(self, command: Command) -> None:
        """The MSC+ and the wire in no time: gather, scatter, count."""
        cells = self.machine.hw_cells
        here, there = cells[self.pe], cells[command.dst]
        if command.kind is CommandKind.PUT:
            data = here.memory.gather(command.laddr, command.send_stride)
            there.memory.scatter(command.raddr, command.recv_stride, data)
            there.mc.increment_flag(command.recv_flag)
        else:
            data = there.memory.gather(command.raddr, command.send_stride)
            here.memory.scatter(command.laddr, command.recv_stride, data)
            here.mc.increment_flag(command.recv_flag)
        here.mc.increment_flag(command.send_flag)
        self.machine.note_progress()

    def _post(self, dst: int, payload: bytes, context: int) -> Packet:
        machine = self.machine
        machine._serial += 1
        packet = Packet(kind=PacketKind.SEND, src=self.pe, dst=dst,
                        payload_bytes=len(payload), data=payload,
                        context=context, serial=machine._serial)
        machine.rings[dst].deposit(packet)
        machine.note_progress()
        return packet

    def _note_stride(self, remote: ElementStride) -> None:
        site = _caller_site()
        self.machine.stride_sites.setdefault(site, set()).add(
            (remote.items_per_block, remote.skip))

    def put_stride(self, dst: int, dest: LocalArray, src: LocalArray,
                   send_stride: ElementStride, recv_stride: ElementStride,
                   **options: Any) -> None:
        self._note_stride(recv_stride)
        super().put_stride(dst, dest, src, send_stride, recv_stride,
                           **options)

    def get_stride(self, src_pe: int, remote: LocalArray, local: LocalArray,
                   remote_stride: ElementStride,
                   local_stride: ElementStride, **options: Any) -> None:
        self._note_stride(remote_stride)
        super().get_stride(src_pe, remote, local, remote_stride,
                           local_stride, **options)

    def checkpoint(self, *, barrier: bool = False,
                   group: Group | None = None) -> Iterator[None]:
        """Checkpoint sites are trace-invisible when disarmed, and the
        static model never arms a gate — only the subsumed barrier (if
        any) is executed and traced, exactly as on the real machine."""
        return self.barrier(group) if barrier else ()

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
    for pe, (_, flag_id, target, addr) in flag_cells:
        current = run.machine.hw_cells[pe].mc.read_flag(addr)
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
