"""Trace conformance: recorded executions vs the static graph.

The static analyzer (:mod:`repro.check.comm`) predicts, per cell, the
exact sequence of communication and synchronization operations a program
performs, and closed forms in P for the machine-wide message counts and
byte volumes.  This module checks a *recorded* trace against those
predictions:

* **linearization** — every cell's recorded event sequence (kinds,
  partners, sizes, flags, collective groups, byte footprints; issue
  order and message serials excluded, since those depend on the
  interleaving) must equal the predicted sequence;
* **aggregate ground truth** — machine-wide per-kind message counts and
  byte totals must match the symbolic run at the same P, and — where an
  exact closed form was fitted — the closed form's prediction.

Failures are ``COMM-NONCONFORM`` diagnostics; a conforming app gets a
clean report whose stats record the verified counts at each P.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from repro.bench.cache import DEFAULT_CACHE_DIR, TraceCache
from repro.bench.grid import BenchSpec
from repro.check.comm import (
    UNTIMED_KINDS,
    CommRun,
    analyze_app,
    kind_totals,
    static_params,
)
from repro.check.diagnostics import (
    SEVERITY_ERROR,
    CheckReport,
    Diagnostic,
    EventRef,
)
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent

__all__ = [
    "CONFORM_APPS",
    "DEFAULT_CONFORM_SCALES",
    "conform_app",
    "conform_apps",
    "conform_trace",
]

#: Apps whose analysis parameters are valid and cheap at every
#: conformance scale (fixed problem size, P-independent behaviour).
CONFORM_APPS = ("EP", "CG", "MatMul", "PingPong", "RingShift")

DEFAULT_CONFORM_SCALES = (4, 16, 64)

_GROUPED_KINDS = {EventKind.BARRIER, EventKind.GOP, EventKind.VGOP}


def _event_key(ev: TraceEvent, trace: TraceBuffer) -> tuple:
    """The interleaving-independent identity of one recorded event.

    Message serials (``msg_id``) and the global issue counter (``seq``)
    depend on scheduling order and are excluded; group ids are replaced
    by member tuples because interning order is interleaving-dependent.
    """
    members: tuple[int, ...] = ()
    if ev.kind in _GROUPED_KINDS:
        members = trace.groups.members(ev.group)
    return (
        ev.kind.name, ev.partner, ev.size, ev.stride, ev.is_ack,
        ev.send_flag, ev.recv_flag, ev.flag, ev.target, members,
        ev.group_size,
        ev.raddr, ev.rchunk, ev.rcount, ev.rstep,
        ev.laddr, ev.lchunk, ev.lcount, ev.lstep,
    )


def _cell_sequence(trace: TraceBuffer,
                   pe: int) -> list[tuple[tuple, int]]:
    """(event key, seq) for every conformance-relevant event of a cell."""
    return [(_event_key(ev, trace), ev.seq)
            for ev in trace.events_for(pe)
            if ev.kind not in UNTIMED_KINDS]


def _describe_key(key: tuple) -> str:
    kind, partner, size = key[0], key[1], key[2]
    desc = kind
    if partner >= 0:
        desc += f" partner={partner}"
    desc += f" size={size}"
    return desc


def conform_trace(run: CommRun,
                  trace: TraceBuffer) -> list[Diagnostic]:
    """Check that ``trace`` is a linearization of the predicted graph."""
    diags: list[Diagnostic] = []
    p = run.num_cells
    if trace.num_pes != p:
        return [Diagnostic(
            code="COMM-NONCONFORM",
            severity=SEVERITY_ERROR,
            message=(f"recorded trace has {trace.num_pes} cells but the "
                     f"static graph was built for {p}"),
        )]
    mismatched: list[int] = []
    for pe in range(p):
        predicted = _cell_sequence(run.trace, pe)
        recorded = _cell_sequence(trace, pe)
        if [k for k, _ in predicted] == [k for k, _ in recorded]:
            continue
        mismatched.append(pe)
        if len(mismatched) > 3:
            continue
        upto = min(len(predicted), len(recorded))
        pos = next((i for i in range(upto)
                    if predicted[i][0] != recorded[i][0]), upto)
        if pos < len(predicted) and pos < len(recorded):
            what = (f"op #{pos}: predicted "
                    f"{_describe_key(predicted[pos][0])}, recorded "
                    f"{_describe_key(recorded[pos][0])}")
        else:
            what = (f"predicted {len(predicted)} ops, recorded "
                    f"{len(recorded)}")
        events = []
        if pos < len(recorded):
            events.append(EventRef(pe=pe, seq=recorded[pos][1],
                                   kind=recorded[pos][0][0]))
        diags.append(Diagnostic(
            code="COMM-NONCONFORM",
            severity=SEVERITY_ERROR,
            message=(f"cell {pe}'s recorded sequence is not a "
                     f"linearization of the static graph ({what})"),
            events=tuple(events),
            home=pe,
        ))
    if len(mismatched) > 3:
        diags.append(Diagnostic(
            code="COMM-NONCONFORM",
            severity=SEVERITY_ERROR,
            message=(f"{len(mismatched)} of {p} cells diverge from the "
                     f"static graph (first: cells {mismatched[:3]})"),
        ))
    predicted_totals = run.kind_totals()
    recorded_totals = kind_totals(trace)
    for label in sorted(set(predicted_totals) | set(recorded_totals)):
        want = predicted_totals.get(label, (0, 0))
        got = recorded_totals.get(label, (0, 0))
        if want != got:
            diags.append(Diagnostic(
                code="COMM-NONCONFORM",
                severity=SEVERITY_ERROR,
                message=(
                    f"{label} ground truth disagrees with the graph: "
                    f"predicted {want[0]} ops / {want[1]} bytes, "
                    f"recorded {got[0]} ops / {got[1]} bytes"),
            ))
    return diags


def conform_app(
    name: str,
    *,
    scales: tuple[int, ...] = DEFAULT_CONFORM_SCALES,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    log: Callable[[str], None] | None = None,
) -> CheckReport:
    """Record (or load) real traces of one app at several machine sizes
    and check each against the static communication graph."""
    # Lazy: the runner imports this module.
    from repro.check.runner import sanitized_run

    report = CheckReport(subject=f"conform/{name}")
    static_report, graph, runs = analyze_app(name, scales=scales)
    if not static_report.clean:
        report.notes.append(
            "static analysis reported findings; conformance checked "
            "against the predicted graph anyway")
    assert graph is not None
    forms = {label: graph.total_forms(label) for label in graph.labels()}
    _, params = static_params(name)
    cache = TraceCache(cache_dir) if use_cache else None
    for p in scales:
        if log is not None:
            log(f"conform {name} at P={p}")
        spec = BenchSpec(app=name, num_cells=p, params=dict(params))
        recorded, _ = sanitized_run(spec, cache)
        report.extend(conform_trace(runs[p], recorded.trace))
        recorded_totals = kind_totals(recorded.trace)
        verified_forms = 0
        for label, (count_form, bytes_form) in sorted(forms.items()):
            got = recorded_totals.get(label, (0, 0))
            for what, form, actual in (("count", count_form, got[0]),
                                       ("bytes", bytes_form, got[1])):
                if not form.exact:
                    continue
                predicted = form.predict(p)
                if predicted == actual:
                    verified_forms += 1
                    continue
                report.add(Diagnostic(
                    code="COMM-NONCONFORM",
                    severity=SEVERITY_ERROR,
                    message=(
                        f"closed form for {label} {what} "
                        f"({form.expression}) predicts {predicted} at "
                        f"P={p} but the trace records {actual}"),
                ))
        report.stats[f"p{p}_events"] = recorded.trace.total_events
        report.stats[f"p{p}_closed_forms_verified"] = verified_forms
    for label in graph.labels():
        count_form, bytes_form = forms[label]
        report.notes.append(
            f"{label}: count = {count_form.expression}, "
            f"bytes = {bytes_form.expression}")
    return report.finalize()


def conform_apps(
    names: tuple[str, ...] = CONFORM_APPS,
    *,
    scales: tuple[int, ...] = DEFAULT_CONFORM_SCALES,
    cache_dir: str | Path = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    log: Callable[[str], None] | None = None,
) -> list[CheckReport]:
    """Conformance-check several apps; one report per app."""
    return [conform_app(name, scales=scales, cache_dir=cache_dir,
                        use_cache=use_cache, log=log)
            for name in names]
