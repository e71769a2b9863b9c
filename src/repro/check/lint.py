"""Static SPMD lint over application and example sources.

The dynamic checker and the static analyzer (:mod:`repro.check.comm`)
judge what a run issues; these AST rules catch the API misuse no run
records: CPU reads, dropped generators and reused RECEIVE slots.  All
rules are heuristics over names (``ctx``/``rt`` receivers are not
resolved), so every finding can be suppressed with a ``# spmd: ignore``
or ``# spmd: ignore[CODE]`` comment on the flagged line, or file-wide
with ``# spmd: ignore-file`` / ``# spmd: ignore-file[CODE]`` anywhere in
the file (file-level suppression applies first; per-line comments then
cover whatever codes it left active).

Rules:

``SPMD001``
    The destination of a ``spread_move_*`` / ``write_move_block`` /
    ``overlap_fix*`` call is read again before a ``movewait`` — the
    transfer may not have completed (the Ack & Barrier model requires
    MOVEWAIT before the data is usable).
``SPMD002``
    A blocking generator API (``barrier``, ``gop``, ``vgop``,
    ``flag_wait``, ``movewait``, ``finish_puts``, ``recv``, ...) called
    without ``yield from`` — the generator is created and dropped, so
    the call silently does nothing.
``SPMD003``
    A packet obtained from an in-place RECEIVE is used after a later
    blocking receive — the ring-buffer slot may have been reused.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from pathlib import Path

from repro.check.diagnostics import (
    SEVERITY_WARNING,
    CheckReport,
    Diagnostic,
)

#: Generator-based (blocking) cell APIs that need ``yield from``.
BLOCKING_CALLS = frozenset({
    "barrier", "gop", "vgop", "flag_wait", "movewait", "finish_puts",
    "recv", "recv_array", "creg_load", "wt_bind", "wt_refresh",
    "checkpoint",
})

#: Run-time move calls -> index of the argument naming the destination.
MOVE_DEST_ARG = {
    "spread_move_row": 0,
    "spread_move_col": 0,
    "spread_move_block": 0,
    "write_move_block": 1,
    "overlap_fix": 0,
    "overlap_fix_mixed": 0,
}

_IGNORE_RE = re.compile(
    r"#\s*spmd:\s*ignore(?!-file)(?:\[([A-Z0-9, ]+)\])?")
_IGNORE_FILE_RE = re.compile(
    r"#\s*spmd:\s*ignore-file(?:\[([A-Z0-9, ]+)\])?")


def _suppressions(source: str) -> dict[int, set[str] | None]:
    """Line -> suppressed codes (None = all codes) from ignore comments."""
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _IGNORE_RE.search(line)
        if m:
            codes = m.group(1)
            out[lineno] = (
                {c.strip() for c in codes.split(",")} if codes else None
            )
    return out


def _file_suppressions(source: str) -> tuple[bool, set[str] | None]:
    """File-wide suppressions from ``# spmd: ignore-file`` comments.

    Returns ``(active, codes)``: ``codes`` is None when every code is
    suppressed (a bare ``ignore-file``), else the union of the codes
    named by all ``ignore-file[...]`` comments in the file.
    """
    codes: set[str] = set()
    active = False
    for m in _IGNORE_FILE_RE.finditer(source):
        active = True
        named = m.group(1)
        if named is None:
            return True, None
        codes.update(c.strip() for c in named.split(","))
    return active, codes if active else None


def _attr_name(func: ast.expr) -> str | None:
    """The trailing attribute name of a call target (``rt.gop`` -> gop)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _base_name(node: ast.expr) -> str | None:
    """The root Name of an expression like ``dest.data[i]``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _names_loaded(node: ast.AST, *, skip: set[int]) -> set[str]:
    """Every Name read inside ``node``, excluding subtrees in ``skip``."""
    found: set[str] = set()
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        if id(cur) in skip:
            continue
        if isinstance(cur, ast.Name) and isinstance(cur.ctx, ast.Load):
            found.add(cur.id)
        stack.extend(ast.iter_child_nodes(cur))
    return found


def _header_nodes(stmt: ast.stmt) -> list[ast.AST]:
    """The expressions evaluated *at* this statement, excluding nested
    statement bodies (those are scanned by recursion)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, ast.With):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def _walk_headers(headers: list[ast.AST]) -> Iterator[ast.AST]:
    for header in headers:
        for node in ast.walk(header):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node


def _assigned_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_assigned_names(elt))
        return out
    return []


class _FunctionLinter:
    """Runs every rule over one function body (nested functions are
    linted separately by the file walker)."""

    def __init__(self, func: ast.FunctionDef, filename: str) -> None:
        self.func = func
        self.filename = filename
        self.diagnostics: list[Diagnostic] = []
        #: Call nodes that are the operand of a ``yield from`` / ``await``.
        self.driven: set[int] = {
            id(node.value)
            for node in ast.walk(func)
            if isinstance(node, (ast.YieldFrom, ast.Await))
        }
        # A blocking generator bound to a name and driven (or returned —
        # handing the caller responsibility) later is not dropped:
        #     gen = ctx.barrier()
        #     ...
        #     yield from gen
        driven_names = {
            node.value.id
            for node in ast.walk(func)
            if isinstance(node, (ast.YieldFrom, ast.Await, ast.Return))
            and isinstance(node.value, ast.Name)
        }
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in driven_names
                    and isinstance(node.value, ast.Call)):
                self.driven.add(id(node.value))

    def emit(self, code: str, line: int, message: str,
             severity: str = "error") -> None:
        self.diagnostics.append(Diagnostic(
            code=code, message=message, severity=severity,
            file=self.filename, line=line,
        ))

    def run(self) -> list[Diagnostic]:
        # pending destination name -> (line, move call name)
        pending: dict[str, tuple[int, str]] = {}
        unsafe_packets: dict[str, int] = {}
        inplace_packets: set[str] = set()
        for stmt in self.func.body:
            self._scan_statement(stmt, pending, inplace_packets,
                                 unsafe_packets)
        return self.diagnostics

    def _scan_statement(self, stmt: ast.stmt,
                        pending: dict[str, tuple[int, str]],
                        inplace_packets: set[str],
                        unsafe_packets: dict[str, int]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # linted as its own function
        # Only this statement's "header" is scanned here; the bodies of
        # compound statements are visited by the recursion below (so
        # nothing is reported twice).
        headers = _header_nodes(stmt)
        move_calls: list[ast.Call] = []
        blocking = False
        for node in _walk_headers(headers):
            if not isinstance(node, ast.Call):
                continue
            name = _attr_name(node.func)
            if name in MOVE_DEST_ARG:
                move_calls.append(node)
            if name in BLOCKING_CALLS:
                blocking = True
                if id(node) not in self.driven:
                    self.emit(
                        "SPMD002", node.lineno,
                        f"blocking call `{name}` is not driven with "
                        f"`yield from`; the generator is created and "
                        f"dropped, so the {name} never happens",
                    )
                if name == "movewait":
                    pending.clear()
        # SPMD001: reads of not-yet-waited move destinations.
        skip = {id(c) for c in move_calls}
        reads = set()
        for header in headers:
            reads |= _names_loaded(header, skip=skip)
        if pending:
            for read in reads & set(pending):
                line, move = pending.pop(read)
                self.emit(
                    "SPMD001", stmt.lineno,
                    f"`{read}` is read here but `{move}` on line {line} "
                    f"has no `movewait` in between: the transfer may "
                    f"not have completed",
                )
        for call in move_calls:
            name = _attr_name(call.func)
            assert name is not None
            dest_idx = MOVE_DEST_ARG[name]
            if dest_idx < len(call.args):
                dest = _base_name(call.args[dest_idx])
                if dest is not None:
                    pending[dest] = (call.lineno, name)
        # SPMD003: in-place packets invalidated by further blocking calls.
        if unsafe_packets:
            for read in reads & set(unsafe_packets):
                line = unsafe_packets.pop(read)
                self.emit(
                    "SPMD003", stmt.lineno,
                    f"in-place RECEIVE packet `{read}` (line {line}) is "
                    f"used after a later blocking call: its ring-buffer "
                    f"slot may have been reused",
                    severity=SEVERITY_WARNING,
                )
        if blocking:
            for name in inplace_packets:
                unsafe_packets.setdefault(name, stmt.lineno)
        self._track_inplace(stmt, inplace_packets)
        # Recurse into compound statements in order.
        for child_body in _child_bodies(stmt):
            for child in child_body:
                self._scan_statement(child, pending, inplace_packets,
                                     unsafe_packets)

    def _track_inplace(self, stmt: ast.stmt,
                       inplace_packets: set[str]) -> None:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        value = stmt.value
        if isinstance(value, ast.YieldFrom):
            value = value.value
        if not isinstance(value, ast.Call):
            return
        if _attr_name(value.func) != "recv":
            return
        in_place = any(
            kw.arg == "in_place"
            and not (isinstance(kw.value, ast.Constant)
                     and kw.value.value is False)
            for kw in value.keywords
        )
        if in_place:
            inplace_packets.update(_assigned_names(stmt.targets[0]))

def _child_bodies(stmt: ast.stmt) -> Iterator[list[ast.stmt]]:
    """The nested statement bodies of a compound statement whose header
    :func:`_header_nodes` scans apart from them, in order."""
    if isinstance(stmt, (ast.If, ast.While, ast.For, ast.With, ast.Try)):
        for attr in ("body", "orelse", "finalbody"):
            yield getattr(stmt, attr, [])
        for handler in getattr(stmt, "handlers", []):
            yield handler.body


def lint_source(source: str, filename: str) -> list[Diagnostic]:
    """Lint one module's source text; returns sorted diagnostics."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Diagnostic(
            code="SPMD000",
            message=f"syntax error: {exc.msg}",
            file=filename,
            line=exc.lineno or 1,
        )]
    suppress = _suppressions(source)
    file_active, file_codes = _file_suppressions(source)
    diagnostics: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            diagnostics.extend(_FunctionLinter(node, filename).run())
    kept = []
    for diag in diagnostics:
        # File-level suppression applies first; per-line comments then
        # cover whatever codes the file-level one left unsuppressed.
        if file_active and (file_codes is None
                            or diag.code in file_codes):
            continue
        codes = suppress.get(diag.line or 0, "missing")
        if codes == "missing":
            kept.append(diag)
        elif codes is not None and diag.code not in codes:
            kept.append(diag)
    kept.sort(key=Diagnostic.sort_key)
    return kept


def lint_file(path: str | Path, *, root: str | Path | None = None
              ) -> list[Diagnostic]:
    """Lint one file; paths in diagnostics are relative to ``root``."""
    path = Path(path)
    shown = path
    if root is not None:
        try:
            shown = path.resolve().relative_to(Path(root).resolve())
        except ValueError:
            shown = path
    return lint_source(path.read_text(encoding="utf-8"), str(shown))


def lint_paths(paths: list[Path], *, root: str | Path | None = None
               ) -> CheckReport:
    """Lint a file set into one report (subject ``lint``)."""
    report = CheckReport(subject="lint")
    files = 0
    for path in sorted(paths):
        files += 1
        report.extend(lint_file(path, root=root))
    report.stats["files"] = files
    return report.finalize()
