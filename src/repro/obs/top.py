"""``repro top``: ASCII utilization view of a replay or bench artifact.

Trace mode replays a saved trace (or a fresh micro/app run) and draws
one utilization bar per PE — ``#`` execution, ``r`` rtsys, ``o``
overhead, ``.`` idle, matching the timeline renderer's glyphs — plus a
T-net link heatmap, wait-latency summaries, and robustness counters
from the replay metric document.  Artifact mode summarizes the
``metrics`` blocks of a ``BENCH_*.json`` without re-running anything.
"""

from __future__ import annotations

from typing import Any

from repro.mlsim.breakdown import MLSimResult

#: Schema tags of the two ``repro top --json`` document shapes.
TOP_SCHEMA = "repro-top-v1"
BENCH_TOP_SCHEMA = "repro-top-bench-v1"

_GLYPHS = (("execution", "#"), ("rtsys", "r"), ("overhead", "o"),
           ("idle", "."))
#: Links shown in the heatmap (busiest first).
MAX_LINKS = 12


def _pe_bar(breakdown, clock_scale: float, width: int) -> str:
    """One PE's bar: length ~ its clock, segments ~ bucket shares."""
    accounted = breakdown.accounted
    length = max(int(round(breakdown.clock * clock_scale * width)), 1)
    if accounted <= 0:
        return "." * length
    cells: list[str] = []
    for bucket, glyph in _GLYPHS:
        share = getattr(breakdown, bucket) / accounted
        cells.extend(glyph * int(round(share * length)))
    # Rounding drift: clamp/pad to the target length.
    if len(cells) > length:
        cells = cells[:length]
    while len(cells) < length:
        cells.append(".")
    return "".join(cells)


def _histogram_line(name: str, hist: dict[str, Any]) -> str:
    count = hist.get("count", 0)
    if not count:
        return f"  {name:<14} (no samples)"
    mean = hist.get("total_us", 0.0) / count
    return (f"  {name:<14} {count:>6d} waits   "
            f"mean {mean:>9.1f} us   max {hist.get('max_us', 0.0):>9.1f} us")


def render_top(result: MLSimResult, *, width: int = 48) -> str:
    """ASCII dashboard for one replay result (with metrics attached)."""
    lines = [
        f"model {result.model_name}: {result.elapsed_us:.1f} us elapsed, "
        f"{result.messages} messages, {result.bytes_on_wire} bytes on wire",
        "per-PE utilization (# exec, r rtsys, o overhead, . idle):",
    ]
    elapsed = result.elapsed_us or 1.0
    for pe, breakdown in enumerate(result.per_pe):
        busy = breakdown.accounted - breakdown.idle
        util = busy / breakdown.accounted if breakdown.accounted else 0.0
        bar = _pe_bar(breakdown, 1.0 / elapsed, width)
        lines.append(f"PE {pe:3d} |{bar:<{width}}| {100.0 * util:5.1f}% busy")
    metrics = result.metrics
    if metrics is None:
        lines.append("(no replay metrics; run with collect_metrics=True)")
        return "\n".join(lines)
    links = metrics.get("links", {})
    if links:
        lines.append("hottest T-net links (store-and-forward busy time):")
        ranked = sorted(links.items(),
                        key=lambda kv: (-kv[1]["utilization"], kv[0]))
        top_util = ranked[0][1]["utilization"] or 1.0
        for name, link in ranked[:MAX_LINKS]:
            bar = "#" * max(int(round(
                link["utilization"] / top_util * 20)), 1)
            lines.append(
                f"  {name:>9} |{bar:<20}| {100.0 * link['utilization']:5.1f}%"
                f"  {link['frames']:>6d} frames  {link['bytes']:>9d} B")
        if len(ranked) > MAX_LINKS:
            lines.append(f"  ... and {len(ranked) - MAX_LINKS} more links")
    waits = metrics.get("waits", {})
    if waits:
        lines.append("wait latencies:")
        for name in ("flag_wait", "barrier_wait"):
            if name in waits:
                lines.append(_histogram_line(name, waits[name]))
    dma = metrics.get("dma", {})
    if dma:
        lines.append(
            f"DMA busy: max {dma.get('busy_us_max', 0.0):.1f} us "
            f"({100.0 * dma.get('busy_fraction_max', 0.0):.1f}% of elapsed)")
    robustness = metrics.get("robustness", {})
    if any(robustness.values()):
        lines.append("robustness events: " + "  ".join(
            f"{k.lower()}={v}" for k, v in sorted(robustness.items())))
    return "\n".join(lines)


def top_document(result: MLSimResult) -> dict[str, Any]:
    """The ``repro top --json`` document for trace mode."""
    return {
        "schema": TOP_SCHEMA,
        "model": result.model_name,
        "elapsed_us": result.elapsed_us,
        "messages": result.messages,
        "bytes_on_wire": result.bytes_on_wire,
        "per_pe": [
            {
                "pe": pe,
                "execution_us": b.execution,
                "rtsys_us": b.rtsys,
                "overhead_us": b.overhead,
                "idle_us": b.idle,
                "clock_us": b.clock,
            }
            for pe, b in enumerate(result.per_pe)
        ],
        "metrics": result.metrics,
    }


def _metric_at(metrics: dict[str, Any] | None, *path: str):
    node: Any = metrics
    for key in path:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def render_bench_top(artifact) -> str:
    """ASCII summary of the metrics blocks in a bench artifact."""
    lines = [f"bench artifact: grid {artifact.grid!r}, "
             f"presets {', '.join(artifact.preset_names)}"]
    header = (f"  {'app':<14} {'preset':<12} {'elapsed us':>12} "
              f"{'link util':>10} {'queue hw':>9} {'spills':>7} "
              f"{'retries':>8}")
    lines.append(header)
    for app in artifact.app_order:
        result = artifact.apps[app]
        metrics = result.metrics
        queue_hw = _metric_at(metrics, "machine", "queues",
                              "max_high_water_words")
        spills = _metric_at(metrics, "machine", "queues", "spilled")
        retries = _metric_at(metrics, "machine", "faults", "retries")
        for preset in artifact.preset_names:
            pm = result.presets.get(preset)
            if pm is None:
                continue
            util = _metric_at(metrics, "replay", preset,
                              "links_max_utilization")
            lines.append(
                f"  {app:<14} {preset:<12} {pm.elapsed_us:>12.1f} "
                + (f"{100.0 * util:>9.1f}%" if util is not None
                   else f"{'-':>10}")
                + (f" {queue_hw:>9d}" if queue_hw is not None
                   else f" {'-':>9}")
                + (f" {spills:>7d}" if spills is not None else f" {'-':>7}")
                + (f" {retries:>8d}" if retries is not None
                   else f" {'-':>8}"))
        if metrics is None:
            lines.append(f"  {app:<14} (no metrics block in this artifact)")
    return "\n".join(lines)


def bench_top_document(artifact) -> dict[str, Any]:
    """The ``repro top --json`` document for artifact mode."""
    return {
        "schema": BENCH_TOP_SCHEMA,
        "grid": artifact.grid,
        "preset_names": list(artifact.preset_names),
        "apps": {
            app: {
                "presets": {
                    preset: {"elapsed_us": pm.elapsed_us,
                             "messages": pm.messages,
                             "bytes_on_wire": pm.bytes_on_wire}
                    for preset, pm in artifact.apps[app].presets.items()
                },
                "metrics": artifact.apps[app].metrics,
            }
            for app in artifact.app_order
        },
    }
