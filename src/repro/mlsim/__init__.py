"""MLSim — the message level simulator (section 5).

Trace-driven timing replay of functional-machine traces under the
paper's machine models: parameter files (Figure 6), the PUT communication
model (Figure 7), a discrete-event engine, and the four-bucket time
breakdown of section 5.3."""

from repro.mlsim.breakdown import MLSimResult, PEBreakdown
from repro.mlsim.params import (
    PRESETS,
    MLSimParams,
    ap1000_fast_params,
    ap1000_params,
    ap1000_plus_params,
    format_params,
    parse_params,
    preset,
)
from repro.mlsim.put_model import (
    PutTimeline,
    dma_drain_time,
    flag_check_cpu_time,
    get_reply_service_time,
    get_send_cpu_time,
    network_time,
    put_send_cpu_time,
    put_timeline,
    recv_cpu_theft,
    recv_flag_update_time,
    recv_service_time,
    send_dma_setup_time,
)
from repro.mlsim.simulator import ModelComparison, simulate, simulate_models
from repro.mlsim.timeline import Span, Timeline, render_timeline

__all__ = [
    "MLSimResult",
    "PEBreakdown",
    "PRESETS",
    "MLSimParams",
    "ap1000_fast_params",
    "ap1000_params",
    "ap1000_plus_params",
    "format_params",
    "parse_params",
    "preset",
    "PutTimeline",
    "dma_drain_time",
    "flag_check_cpu_time",
    "get_reply_service_time",
    "get_send_cpu_time",
    "network_time",
    "put_send_cpu_time",
    "put_timeline",
    "recv_cpu_theft",
    "recv_flag_update_time",
    "recv_service_time",
    "send_dma_setup_time",
    "ModelComparison",
    "simulate",
    "simulate_models",
    "Span",
    "Timeline",
    "render_timeline",
]
