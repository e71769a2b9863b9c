"""How the engine tests drive the production engine on hand-built traces."""

from __future__ import annotations

from repro.mlsim.breakdown import MLSimResult
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import MLSimParams, ap1000_plus_params
from repro.network.topology import TorusTopology
from repro.trace.buffer import TraceBuffer
from repro.trace.soa import columns_from_buffer
from tests.trace.views import record


def trace_of(num_pes: int, events) -> TraceBuffer:
    buf = TraceBuffer(num_pes=num_pes)
    for ev in events:
        record(buf, ev)
    return buf


def replay(trace: TraceBuffer, params: MLSimParams | None = None,
           topology: TorusTopology | None = None,
           **options) -> MLSimResult:
    """Replay ``trace`` as recorded (no coalescing), AP1000+ by default."""
    return replay_columns(columns_from_buffer(trace),
                          params or ap1000_plus_params(), topology,
                          **options)


def flag_wait_ends(result: MLSimResult, pe: int) -> list[float]:
    """When each flag wait that had to idle resumed on ``pe`` — the time
    of the flag update it waited for (needs ``record_timeline``)."""
    return [span.end for span in result.timeline.spans_for(pe)
            if span.bucket == "idle" and span.label == "FLAG_WAIT"]
