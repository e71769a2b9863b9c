"""Application statistics in the shape of the paper's Table 3.

For each application, Table 3 reports per-PE averages of SEND, Gop, V Gop,
Sync, PUT, PUTS, GET, GETS, and the average PUT/GET message size in bytes
"without GET for acknowledge".  This module derives exactly those columns
from a trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind

TABLE3_COLUMNS = (
    "PE", "SEND", "Gop", "V Gop", "Sync",
    "PUT", "PUTS", "GET", "GETS", "Size of Msg.",
)


@dataclass(frozen=True)
class AppStatistics:
    """One row of Table 3."""

    num_pes: int
    send_per_pe: float
    gop_per_pe: float
    vgop_per_pe: float
    sync_per_pe: float
    put_per_pe: float
    puts_per_pe: float
    get_per_pe: float
    gets_per_pe: float
    avg_message_bytes: float
    # Robustness counters (zero on a perfect machine; populated when
    # repro.faults is active).  Machine-wide totals, not per-PE averages,
    # because faults are rare events, not per-cell workload.  Defaults
    # keep cached AppStatistics from before these fields loadable.
    retries: int = 0
    timeouts: int = 0
    spills: int = 0

    def as_row(self) -> tuple:
        return (
            self.num_pes, self.send_per_pe, self.gop_per_pe,
            self.vgop_per_pe, self.sync_per_pe, self.put_per_pe,
            self.puts_per_pe, self.get_per_pe, self.gets_per_pe,
            self.avg_message_bytes,
        )


def collect_statistics(trace: TraceBuffer) -> AppStatistics:
    """Compute the Table 3 row of a trace from its block's columns."""
    n = trace.num_pes
    block = trace.block()
    kind = block["kind"]
    counts = np.bincount(kind, minlength=len(EventKind)).tolist()
    # "without GET for acknowledge": acknowledge GETs leave both the GET
    # count column and the message-size average.
    put = kind == EventKind.PUT
    get = (kind == EventKind.GET) & ~block["is_ack"]
    message = put | get
    puts_stride = int(np.count_nonzero(put & block["stride"]))
    gets_stride = int(np.count_nonzero(get & block["stride"]))
    gets = int(np.count_nonzero(get))
    msg_count = int(np.count_nonzero(message))
    msg_bytes = int(block["size"][message].sum(dtype=np.int64))

    def per_pe(value: int) -> float:
        return value / n

    return AppStatistics(
        num_pes=n,
        send_per_pe=per_pe(counts[EventKind.SEND]),
        gop_per_pe=per_pe(counts[EventKind.GOP]),
        vgop_per_pe=per_pe(counts[EventKind.VGOP]),
        sync_per_pe=per_pe(counts[EventKind.BARRIER]),
        put_per_pe=per_pe(counts[EventKind.PUT] - puts_stride),
        puts_per_pe=per_pe(puts_stride),
        get_per_pe=per_pe(gets - gets_stride),
        gets_per_pe=per_pe(gets_stride),
        avg_message_bytes=(msg_bytes / msg_count) if msg_count else 0.0,
        retries=counts[EventKind.RETRY],
        timeouts=counts[EventKind.TIMEOUT],
        spills=counts[EventKind.SPILL],
    )


def format_table3_row(name: str, stats: AppStatistics) -> str:
    """Render one application's row in the paper's layout, extended
    with the machine-wide robustness totals (retry/timeout/spill)."""
    row = stats.as_row()
    cells = [f"{name:<10}", f"{row[0]:>4d}"]
    cells += [f"{v:>10.1f}" for v in row[1:]]
    cells += [f"{v:>7d}"
              for v in (stats.retries, stats.timeouts, stats.spills)]
    return "  ".join(cells)
