"""Static communication-graph analyzer: concolic SPMD interpretation.

The paper's compiler statically knows the PUT/GET communication pattern
of the program it generated; this module recovers that knowledge for our
SPMD programs.  It runs a cell program at several machine sizes on the
functional :class:`~repro.machine.machine.Machine` itself — sanitized,
so every PUT/GET row carries its byte footprint, serial, and on the
perfect wire, where a command's bytes land in the call that issues it —
and notes the call site of every communication row through a trace
sink.  The program sees the one
:class:`~repro.machine.program.CellContext`, so every spelling of the
interface is analysed as it runs and predicted addresses are the real
ones.
From those runs it extracts a **static communication graph** (sync-point
nodes, PUT/GET/SEND edges with symbolic partner expressions and message
count/byte closed forms in P, see :mod:`repro.check.symbolic`) and runs
scale-generic analyses the dynamic checker cannot:

``COMM-DIVERGENCE``
    group members execute different collective sequences (a deadlock at
    *any* machine size exhibiting the divergent branch), or a cell is
    stuck at a collective/RECEIVE when the run wedges;
``COMM-UNMATCHED-FLAG``
    a flag wait whose target exceeds the increments the rest of the
    program ever produces;
``COMM-OVERLAP``
    write-write or write-read footprint overlap predicted from the
    predicted trace (``repro.check.races`` beyond the traced execution);
``COMM-STRIDE``
    a stride-transfer call site whose remote byte skip varies within
    one run — a non-constant stride, read off the transfers actually
    issued.

Findings are aggregated across machine sizes, so one report covers
P ∈ {4, 16, 64} with a single diagnostic per root cause.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Callable
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
from repro.core import api as _paper_api
from repro.core.errors import ConfigurationError, DeadlockError
from repro.machine import batch as _batch
from repro.machine import program as _front_end
from repro.machine import shmem as _shared_memory
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace import buffer as _trace_buffer
from repro.trace.buffer import TraceBuffer, streaming_to
from repro.trace.events import EventKind

__all__ = [
    "CommGraph",
    "CommRun",
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
#: Timing/annotation records, not communication; the graph skips them,
#: and they get no call site.
UNTIMED_KINDS = frozenset({EventKind.COMPUTE, EventKind.RTSYS,
                           EventKind.PHASE})

#: Files whose frames are the interface itself, not a call site of it.
_INTERFACE_FILES = frozenset(
    str(Path(file).resolve())
    for file in (__file__, _front_end.__file__, _batch.__file__,
                 _paper_api.__file__, _shared_memory.__file__,
                 _trace_buffer.__file__))


def _caller_site() -> tuple[str, int]:
    """(file, line) of the nearest stack frame outside the interface's
    own modules — the app or runtime-library call site of a
    communication op."""
    frame = sys._getframe()
    while frame is not None and frame.f_code.co_filename in _INTERFACE_FILES:
        frame = frame.f_back
    if frame is None:  # pragma: no cover
        return ("<unknown>", 0)
    return (frame.f_code.co_filename, frame.f_lineno)


@functools.cache
def _rel_site(site: tuple[str, int]) -> tuple[str, int]:
    """Shorten a site path to be repo-relative when possible."""
    path, line = site
    parts = Path(path).parts
    for anchor in ("repro", "examples"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            return (str(Path(*parts[idx:])), line)
    return (Path(path).name, line)


class _SiteSink:
    """A :class:`~repro.trace.buffer.TraceSink` noting the call site of
    every communication row of the machine it binds to."""

    def __init__(self) -> None:
        self.bound = False
        #: event seq -> repo-relative (file, line) call site.
        self.sites: dict[int, tuple[str, int]] = {}

    def bind(self, buffer: TraceBuffer) -> bool:
        bound, self.bound = self.bound, True
        return not bound

    def emit(self, row: tuple) -> None:
        if row[0] not in UNTIMED_KINDS:
            self.sites[row[2]] = _rel_site(_caller_site())

    def phase(self, label: str, pid: int) -> None:
        pass


# ----------------------------------------------------------------------
# Analysis results
# ----------------------------------------------------------------------

@dataclass
class CommRun:
    """One concolic execution at a fixed machine size: the machine it
    ran on, each communication row's call site, and the per-cell
    results (``{}`` when the run wedged)."""

    machine: Machine
    sites: dict[int, tuple[str, int]]
    deadlocked: bool
    results: dict[int, Any]

    @property
    def num_cells(self) -> int:
        return self.machine.config.num_cells

    @property
    def trace(self) -> TraceBuffer:
        return self.machine.trace


def kind_totals(trace: TraceBuffer) -> dict[str, tuple[int, int]]:
    """(count, bytes) per event-kind label over a whole trace.

    COMPUTE/RTSYS/PHASE are excluded; stride transfers are labelled
    ``PUTS``/``GETS`` as in the paper's Table 3, zero-byte acknowledge
    GETs as ``ACK``.  Labels appear in the order the block first has
    them.
    """
    block = trace.block()
    timed = ~np.isin(block["kind"], list(UNTIMED_KINDS))
    labels = _label_codes(block)[timed]
    codes, first = np.unique(labels, return_index=True)
    counts = np.bincount(labels, minlength=len(_LABELS))
    nbytes = np.bincount(labels, block["size"][timed], len(_LABELS))
    return {_LABELS[code]: (int(counts[code]), int(nbytes[code]))
            for code in codes[np.argsort(first)].tolist()}


#: A row's label by code: its kind's name, or one of the three below.
_LABELS = [kind.name for kind in EventKind] + ["PUTS", "GETS", "ACK"]


def _label_codes(block: dict[str, np.ndarray]) -> np.ndarray:
    """Each row's index in :data:`_LABELS`."""
    kind = block["kind"].astype(np.int64)
    put, get = kind == int(EventKind.PUT), kind == int(EventKind.GET)
    stride, ack = block["stride"], block["is_ack"]
    return np.select([put & stride, get & stride, get & ack],
                     np.arange(3) + len(EventKind), kind)


def analyze_program(program: Callable[..., Any], num_cells: int,
                    params: dict[str, Any] | None = None, *,
                    memory_per_cell: int = _MEMORY_PER_CELL) -> CommRun:
    """Concolically execute ``program`` at one machine size.

    The program runs on the functional machine, sanitized and serial; a
    wedge is recorded (``deadlocked``, with ``machine.blocked`` saying
    what each cell waits for) rather than raised, because a deadlock is
    a *finding* here."""
    sink = _SiteSink()
    with streaming_to(sink):
        machine = Machine(MachineConfig(
            num_cells=num_cells, memory_per_cell=memory_per_cell,
            sanitize=True, shards=1))
    try:
        results = machine.run(program, **(params or {}))
    except DeadlockError:
        return CommRun(machine, sink.sites, True, {})
    return CommRun(machine, sink.sites, False, dict(enumerate(results)))


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
        self.totals[p] = kind_totals(run.trace)
        block = run.trace.block()
        for seq, kind, label, pe, partner, size in zip(*(
                column.tolist() for column in (
                    block["seq"], block["kind"], _label_codes(block),
                    block["pe"], block["partner"], block["size"]))):
            site = run.sites.get(seq)
            if site is None:
                continue
            key = (_LABELS[label], site[0], site[1])
            if kind in _EDGE_KINDS:
                obs = self.edges.setdefault(key, {}).setdefault(p, _EdgeObs())
                obs.count += 1
                obs.nbytes += size
                obs.pairs.add((pe, partner))
            elif kind in _NODE_KINDS:
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
                    dict[int, list[tuple[str, int, int]]]] = {}
    block = run.trace.block()
    rows = np.flatnonzero(np.isin(block["kind"], list(_COLLECTIVE_KINDS)))
    for pe, kind, group, size, seq in zip(*(
            block[name][rows].tolist()
            for name in ("pe", "kind", "group", "size", "seq"))):
        members = run.trace.groups.members(group)
        sequences.setdefault(members, {}).setdefault(pe, []).append(
            (EventKind(kind).name, size, seq))
    out: list[Diagnostic] = []
    for members, per_member in sorted(sequences.items()):
        signature = {pe: [(name, size) for name, size, _ in
                          per_member.get(pe, [])] for pe in members}
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
                    events.append(EventRef(pe=who, seq=evs[pos][2],
                                           kind=evs[pos][0]))
            site = None
            for ref in events:
                site = run.sites.get(ref.seq)
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
    block = run.trace.block()
    flag_cells = [(pe, state) for pe, state in
                  sorted(run.machine.blocked.items())
                  if state[0] == "flag_wait"]
    for pe, (_, flag_id, target, addr) in flag_cells:
        current = run.machine.hw_cells[pe].mc.read_flag(addr)
        ref: tuple[EventRef, ...] = ()
        site = None
        waits = block["seq"][(block["pe"] == pe) & (block["flag"] == flag_id)
                             & (block["kind"] == int(EventKind.FLAG_WAIT))]
        if len(waits):
            seq = int(waits[-1])
            ref = (EventRef(pe=pe, seq=seq, kind="FLAG_WAIT"),)
            site = run.sites.get(seq)
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
            message="the run wedged with no runnable cell",
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
    """Call sites whose stride transfers use more than one remote skip
    (the ``rstep`` of the sanitizer's footprint, in bytes)."""
    block = run.trace.block()
    strided = block["stride"]
    if not strided.any():
        return []
    skips_at: dict[tuple[str, int], set[int]] = {}
    for seq, skip in zip(block["seq"][strided].tolist(),
                         block["rstep"][strided].tolist()):
        skips_at.setdefault(run.sites[seq], set()).add(skip)
    return [Diagnostic(
        code="COMM-STRIDE",
        severity=SEVERITY_ERROR,
        message=(
            f"stride transfers issued here use {len(skips)} distinct "
            f"byte skips {sorted(skips)}; the 1-D hardware stride engine "
            f"needs one constant descriptor per transfer pattern"),
        file=file,
        line=line,
    ) for (file, line), skips in sorted(skips_at.items()) if len(skips) > 1]


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
    runs = [analyze_program(program, p, params,
                            memory_per_cell=memory_per_cell)
            for p in sorted(set(scales))]
    return _scale_report(subject, runs).finalize()


def _scale_report(subject: str, runs: list[CommRun]) -> CheckReport:
    """The merged findings of runs at several sizes, with run stats."""
    report = CheckReport(subject=subject)
    report.extend(_merge_findings([
        (run.num_cells, diag)
        for run in runs for diag in run_findings(run, subject)]))
    report.stats["static_scales"] = len(runs)
    report.stats["static_events"] = sum(
        run.trace.total_events for run in runs)
    report.stats["static_deadlocks"] = sum(run.deadlocked for run in runs)
    return report


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
    runs = {p: analyze_program(program, p, params) for p in sizes}
    graph: CommGraph | None = None
    if build_graph:
        graph = CommGraph(subject)
        for p in samples:
            graph.add_run(runs[p])
    report = _scale_report(subject, [runs[p] for p in scales])
    if graph is not None:
        for line in graph.summary():
            report.notes.append(f"graph: {line}")
    return report.finalize(), graph, runs
