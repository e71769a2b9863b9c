"""Diagnostic vocabulary of the checker.

Both analyses — the dynamic race/sync checker over traces and the static
SPMD lint over program source — report through the same
:class:`Diagnostic` record, so the CLI, the bench ``check`` stage, and CI
consume one deterministic, machine-readable stream.

Dynamic codes
    ``RACE-PUT-PUT``       two unordered writes to overlapping remote bytes
    ``RACE-PUT-GET``       an unordered write/read pair on overlapping bytes
    ``FLAG-DEADLOCK``      a flag wait whose target no PUT/GET ever reaches
    ``BARRIER-MISMATCH``   group members reach different barrier sequences
    ``REDUCTION-MISMATCH`` reduction rendezvous with missing members or
                           mixed GOP/VGOP kinds
    ``SYNC-STALL``         a synchronization cycle none of the above explains
    ``UNMATCHED-RECV``     a RECEIVE whose SEND is absent from the trace

Static codes (SPMD lint)
    ``SPMD001`` move destination read before ``movewait``
    ``SPMD002`` blocking call not driven with ``yield from``
    ``SPMD003`` in-place RECEIVE packet used after further blocking calls

Static codes (communication-graph analyzer, :mod:`repro.check.comm`)
    ``COMM-DIVERGENCE``     group members issue diverging collective
                            sequences at some machine size
    ``COMM-UNMATCHED-FLAG`` a flag wait whose target the predicted
                            increments never reach
    ``COMM-OVERLAP``        predicted one-sided footprints overlap with
                            no ordering (a race at *some* P)
    ``COMM-STRIDE``         one call site issues stride transfers with
                            multiple remote byte skips

Reports serialize with an explicit ``schema`` version
(:data:`CHECK_SCHEMA`); consumers must reject versions they do not
know rather than guessing at field semantics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Version of the serialized report format.  Stamped into every
#: ``CheckReport.to_dict()`` (and therefore into ``repro check --json``
#: and the ``results[].check`` blocks of ``BENCH_*.json``).  Bump when a
#: field changes meaning; consumers reject unknown versions.
CHECK_SCHEMA = "repro-check-v1"

#: Every serialized-report version this code base can interpret.
KNOWN_CHECK_SCHEMAS = frozenset({CHECK_SCHEMA})


@dataclass(frozen=True)
class EventRef:
    """A pointer into the trace: which event, on which cell."""

    pe: int
    seq: int
    kind: str

    def to_dict(self) -> dict[str, Any]:
        return {"pe": self.pe, "seq": self.seq, "kind": self.kind}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, from either analysis."""

    code: str
    message: str
    severity: str = SEVERITY_ERROR
    #: Trace events involved (dynamic findings), issue-order sorted.
    events: tuple[EventRef, ...] = ()
    #: Cell whose memory or synchronization state is involved.
    home: int | None = None
    #: Conflicting byte range [addr_lo, addr_hi) in ``home``'s memory.
    addr_lo: int | None = None
    addr_hi: int | None = None
    #: Source location (static findings).
    file: str | None = None
    line: int | None = None

    def sort_key(self) -> tuple:
        return (
            self.file or "",
            self.line if self.line is not None else -1,
            self.code,
            tuple((e.pe, e.seq) for e in self.events),
            self.home if self.home is not None else -1,
            self.addr_lo if self.addr_lo is not None else -1,
            self.message,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.events:
            out["events"] = [e.to_dict() for e in self.events]
        if self.home is not None:
            out["home"] = self.home
        if self.addr_lo is not None and self.addr_hi is not None:
            out["range"] = {"lo": self.addr_lo, "hi": self.addr_hi}
        if self.file is not None:
            out["file"] = self.file
        if self.line is not None:
            out["line"] = self.line
        return out

    def render(self) -> str:
        where = ""
        if self.file is not None:
            where = f"{self.file}:{self.line}: "
        elif self.events:
            refs = ", ".join(
                f"pe{e.pe}#{e.seq}({e.kind})" for e in self.events
            )
            where = f"[{refs}] "
        span = ""
        if self.addr_lo is not None and self.addr_hi is not None:
            span = (
                f" bytes [{self.addr_lo:#x}, {self.addr_hi:#x})"
                + (f" on cell {self.home}" if self.home is not None else "")
            )
        return f"{self.code}: {where}{self.message}{span}"


@dataclass
class CheckReport:
    """The outcome of checking one subject (an app trace or a file set)."""

    subject: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Deterministic analysis statistics (event/access counts).
    stats: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def finalize(self) -> "CheckReport":
        """Sort into the canonical deterministic order."""
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": CHECK_SCHEMA,
            "subject": self.subject,
            "clean": self.clean,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "stats": dict(sorted(self.stats.items())),
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = []
        for diag in self.diagnostics:
            lines.append(f"  {diag.render()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def report_json(reports: list[CheckReport]) -> str:
    """Canonical JSON for a set of reports (stable across runs)."""
    payload = {
        "schema": CHECK_SCHEMA,
        "reports": [r.to_dict() for r in reports],
        "clean": all(r.clean for r in reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
