"""``repro top --follow``: live dashboards over in-progress artifacts.

Two followable subjects:

* a **stream trace** being written by ``repro run --stream`` —
  :class:`FollowState` tails the file incrementally (complete chunks
  only, constant memory) and aggregates link traffic, a queue-pressure
  proxy, and phase progress from each chunk's columns;
* a **trace cache directory** being filled by ``repro bench run`` —
  list the entries recorded at the current code version each tick.

Unlike ``repro top``'s replay mode, follow mode never replays: the run
is still producing the trace, so the dashboard reports *recorded*
quantities — event counts, issued bytes per source→destination pair,
outstanding (issued-but-unacknowledged) messages — not simulated time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.bench.cache import TraceCache
from repro.core.errors import SimulationError
from repro.trace.events import EventKind
from repro.trace.io import FORMAT_STREAM, stream_records

#: Pairs shown in the live link table (busiest first).
MAX_LINKS = 10
#: Kinds that put payload on the wire toward ``partner``.
_WIRE_KINDS = (int(EventKind.PUT), int(EventKind.SEND),
               int(EventKind.GET), int(EventKind.REMOTE_STORE),
               int(EventKind.REMOTE_LOAD))
#: The columns a chunk is aggregated from, in ``FollowState._event``'s
#: argument order.
_READ = ("kind", "pe", "partner", "size", "flag", "target", "work")


class FollowState:
    """Incremental aggregation over a growing stream-trace file.

    ``poll`` consumes any new *complete* records since the last call —
    the header line, chunks (a JSON line, the block its layout sizes, a
    newline) and the footer — and leaves a partial one from a live
    writer for the next tick, so memory and per-tick work are
    proportional to the increment, never to the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.num_pes = 0
        self.total_events = 0
        self.complete = False
        #: Per-PE event counts and recorded compute µs.
        self.pe_events: list[int] = []
        self.pe_work_us: list[float] = []
        self.kind_counts: dict[str, int] = {}
        #: (src, dst) -> [messages, bytes] for wire-bound kinds.
        self.links: dict[tuple[int, int], list[int]] = {}
        self.bytes_on_wire = 0
        #: Queue-pressure proxy: messages issued toward each
        #: destination minus completions observed at it (recv,
        #: flag-wait targets).
        self.inflight: list[int] = []
        self.inflight_high_water: list[int] = []
        self._acked: list[int] = []
        #: Phase bookkeeping: interned labels, per-PE current phase id,
        #: and how many PEs have entered each phase.
        self.phase_labels: list[str] = []
        self.pe_phase: list[int] = []
        self.phase_entries: dict[int, int] = {}
        self._offset = 0

    # ------------------------------------------------------------------
    # Ingestion of increments
    # ------------------------------------------------------------------

    def poll(self) -> int:
        """Consume new complete records; returns how many were read."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except OSError as exc:
            raise SimulationError(
                f"cannot follow {self.path}: {exc}") from exc
        at = consumed = 0
        for doc, block, at in stream_records(data, str(self.path)):
            consumed += 1
            if block is not None:
                self.phase_labels += doc.get("phases", [])
                columns = [block[name].tolist() for name in _READ]
                for event in zip(*columns):
                    self._event(*event)
            elif "footer" in doc:
                self.complete = True
            elif doc["format"] == FORMAT_STREAM and not self.num_pes:
                self._begin(int(doc["num_pes"]))
            else:
                raise SimulationError(
                    f"{self.path} is not a stream trace (format "
                    f"{doc['format']!r}; `repro top --follow` tails files "
                    "written by `repro run --stream`)")
        self._offset += at
        return consumed

    def _begin(self, num_pes: int) -> None:
        self.num_pes = num_pes
        self.pe_events = [0] * num_pes
        self.pe_work_us = [0.0] * num_pes
        self.inflight = [0] * num_pes
        self.inflight_high_water = [0] * num_pes
        self._acked = [0] * num_pes
        self.pe_phase = [0] * num_pes

    def _event(self, kind: int, pe: int, partner: int, size: int,
               flag: int, target: int, work: float) -> None:
        self.total_events += 1
        if 0 <= pe < self.num_pes:
            self.pe_events[pe] += 1
        name = EventKind(kind).name
        self.kind_counts[name] = self.kind_counts.get(name, 0) + 1
        if kind in (int(EventKind.COMPUTE), int(EventKind.RTSYS)):
            if 0 <= pe < self.num_pes:
                self.pe_work_us[pe] += work
            return
        if kind in _WIRE_KINDS and 0 <= partner < self.num_pes:
            stats = self.links.setdefault((pe, partner), [0, 0])
            stats[0] += 1
            stats[1] += size
            self.bytes_on_wire += size
            self.inflight[partner] += 1
            self.inflight_high_water[partner] = max(
                self.inflight_high_water[partner],
                self.inflight[partner])
        elif kind == int(EventKind.RECV):
            self._drain(pe, self._acked[pe] + 1)
        elif kind == int(EventKind.FLAG_WAIT):
            # The wait's target is a cumulative completion count toward
            # this PE; reaching it drains the proxy queue to there.
            self._drain(pe, target)
        elif kind == int(EventKind.PHASE):
            if 0 <= pe < self.num_pes:
                self.pe_phase[pe] = flag
            self.phase_entries[flag] = self.phase_entries.get(flag, 0) + 1

    def _drain(self, pe: int, acked: int) -> None:
        if not 0 <= pe < self.num_pes:
            return
        acked = max(self._acked[pe], acked)
        drained = acked - self._acked[pe]
        self._acked[pe] = acked
        self.inflight[pe] = max(self.inflight[pe] - drained, 0)

    def phase_label(self, pid: int) -> str:
        if 1 <= pid <= len(self.phase_labels):
            return self.phase_labels[pid - 1]
        return f"phase-{pid}"


def render_follow(state: FollowState, *, width: int = 40) -> str:
    """One frame of the live dashboard."""
    status = "complete (footer landed)" if state.complete else "live"
    lines = [
        f"following {state.path} [{status}]: {state.num_pes} PEs, "
        f"{state.total_events} events, {state.bytes_on_wire} bytes "
        "issued",
    ]
    if not state.num_pes:
        lines.append("(waiting for the stream header...)")
        return "\n".join(lines)
    top_count = max(state.pe_events) if state.pe_events else 0
    lines.append("per-PE recorded events (# events, w compute us):")
    show = min(state.num_pes, 16)
    for pe in range(show):
        count = state.pe_events[pe]
        bar = "#" * (max(int(round(count / top_count * width)), 1)
                     if top_count else 0)
        phase = (f"  [{state.phase_label(state.pe_phase[pe])}]"
                 if state.pe_phase[pe] else "")
        lines.append(
            f"PE {pe:3d} |{bar:<{width}}| {count:>8d} ev  "
            f"{state.pe_work_us[pe]:>10.1f} us{phase}")
    if state.num_pes > show:
        lines.append(f"  ... and {state.num_pes - show} more PEs")
    if state.links:
        lines.append("hottest source->destination traffic (issued):")
        ranked = sorted(state.links.items(),
                        key=lambda kv: (-kv[1][1], kv[0]))
        top_bytes = ranked[0][1][1] or 1
        for (src, dst), (frames, nbytes) in ranked[:MAX_LINKS]:
            bar = "#" * max(int(round(nbytes / top_bytes * 20)), 1)
            lines.append(f"  {src:>3d}->{dst:<3d} |{bar:<20}| "
                         f"{frames:>6d} msgs  {nbytes:>10d} B")
        if len(ranked) > MAX_LINKS:
            lines.append(
                f"  ... and {len(ranked) - MAX_LINKS} more pairs")
    hw = max(state.inflight_high_water, default=0)
    if hw:
        worst = state.inflight_high_water.index(hw)
        lines.append(
            f"queue pressure (outstanding msgs toward a PE): high water "
            f"{hw} at PE {worst}, now "
            f"{max(state.inflight, default=0)}")
    if state.phase_entries:
        lines.append("phase progress (PEs that entered each phase):")
        for pid in sorted(state.phase_entries):
            entered = state.phase_entries[pid]
            frac = entered / state.num_pes
            bar = "#" * max(int(round(frac * 20)), 1)
            lines.append(
                f"  {state.phase_label(pid):<20} |{bar:<20}| "
                f"{entered}/{state.num_pes} PEs")
    counts = "  ".join(f"{name}={state.kind_counts[name]}"
                       for name in sorted(state.kind_counts))
    lines.append(f"event mix: {counts}")
    return "\n".join(lines)


def follow_document(state: FollowState) -> dict[str, Any]:
    """Machine-readable frame (``repro top --follow --json``)."""
    return {
        "schema": "repro-top-follow-v1",
        "path": str(state.path),
        "complete": state.complete,
        "num_pes": state.num_pes,
        "total_events": state.total_events,
        "bytes_on_wire": state.bytes_on_wire,
        "pe_events": list(state.pe_events),
        "pe_work_us": list(state.pe_work_us),
        "kind_counts": dict(state.kind_counts),
        "links": {f"{src}->{dst}": {"messages": frames, "bytes": nbytes}
                  for (src, dst), (frames, nbytes)
                  in sorted(state.links.items())},
        "inflight_high_water": list(state.inflight_high_water),
        "phases": {state.phase_label(pid): entered
                   for pid, entered in state.phase_entries.items()},
    }


# ----------------------------------------------------------------------
# Cache follow (bench campaigns)
# ----------------------------------------------------------------------


def render_cache_follow(cache: TraceCache) -> str:
    """One frame of the campaign dashboard: the cache's entries at its
    code version, oldest first."""
    runs = cache.entries()
    lines = [f"trace cache {cache.root}: {len(runs)} entries at this code "
             "version"]
    for run in runs:
        verified = "VERIFIED" if run.verified else "FAILED"
        cells = run.config.get("num_cells", "?")
        lines.append(f"  {run.name:<12} {cells:>5} cells  {verified:<8} "
                     f"{run.total_events:>9d} events  "
                     f"functional {run.functional_wall_s:7.2f}s")
    return "\n".join(lines)
