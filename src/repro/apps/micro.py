"""Communication microbenchmarks: machine characterization.

The AP1000 line of papers (e.g. Shimizu et al., ISCA '92, reference [20])
characterized the machine with exactly these curves before running
applications: point-to-point latency and bandwidth versus message size,
barrier cost versus machine size, and reduction cost versus group size
and vector length.  This module generates the same curves for any
parameter set — they make the PUT/GET hardware's effect legible without
running a full application.

Each microbenchmark builds a purpose-made trace and replays it through
MLSim; `run_*` helpers return plain rows ready for tabulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mlsim.params import MLSimParams
from repro.mlsim.simulator import simulate
from repro.network.topology import TorusTopology
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind

#: Default message-size sweep (bytes): 4 B to 1 MB.
SIZE_SWEEP = tuple(4 * (4 ** i) for i in range(10))


@dataclass(frozen=True)
class LatencyPoint:
    size_bytes: int
    one_way_us: float            # PUT issue to receive-flag update
    round_trip_us: float         # ping-pong pair
    bandwidth_mb_s: float        # size / one-way time


def ping_pong(params: MLSimParams, size: int, *,
              rounds: int = 8, distance_cells: int = 2) -> LatencyPoint:
    """Two cells exchange ``rounds`` flag-synchronized PUTs."""
    trace = TraceBuffer(num_pes=max(distance_cells, 2))
    a, b = 0, distance_cells - 1 if distance_cells > 1 else 1
    flag_a, flag_b = 101, 102
    for i in range(rounds):
        trace.append(EventKind.PUT, a, partner=b, size=size,
                     recv_flag=flag_b)
        trace.append(EventKind.FLAG_WAIT, b, flag=flag_b, target=i + 1)
        trace.append(EventKind.PUT, b, partner=a, size=size,
                     recv_flag=flag_a)
        trace.append(EventKind.FLAG_WAIT, a, flag=flag_a, target=i + 1)
    result = simulate(trace, params)
    round_trip = result.elapsed_us / rounds
    one_way = round_trip / 2.0
    bandwidth = (size / one_way) if one_way > 0 else 0.0  # B/us == MB/s
    return LatencyPoint(size_bytes=size, one_way_us=one_way,
                        round_trip_us=round_trip,
                        bandwidth_mb_s=bandwidth)


def latency_sweep(params: MLSimParams,
                  sizes=SIZE_SWEEP) -> list[LatencyPoint]:
    """One-way latency / bandwidth over a size sweep."""
    return [ping_pong(params, size) for size in sizes]


def half_bandwidth_point(points: list[LatencyPoint]) -> int:
    """n_1/2: the smallest swept size reaching half the peak bandwidth."""
    peak = max(p.bandwidth_mb_s for p in points)
    for p in points:
        if p.bandwidth_mb_s >= peak / 2:
            return p.size_bytes
    return points[-1].size_bytes


@dataclass(frozen=True)
class CollectivePoint:
    cells: int
    barrier_us: float
    gop_us: float
    vgop_1k_us: float


def collective_sweep(params: MLSimParams,
                     cell_counts=(4, 16, 64, 256)) -> list[CollectivePoint]:
    """Barrier / scalar reduction / 1 KB vector reduction vs machine size."""
    rows = []
    for n in cell_counts:
        topo = TorusTopology.for_cells(n)

        def one(kind: EventKind, size: int = 8) -> float:
            trace = TraceBuffer(num_pes=n)
            for pe in range(n):
                trace.append(kind, pe, group=0, group_size=n, size=size)
            return simulate(trace, params, topo).elapsed_us

        rows.append(CollectivePoint(
            cells=n,
            barrier_us=one(EventKind.BARRIER),
            gop_us=one(EventKind.GOP),
            vgop_1k_us=one(EventKind.VGOP, size=1024),
        ))
    return rows


def format_latency_table(model_points: dict[str, list[LatencyPoint]]) -> str:
    """Render the latency/bandwidth sweep for several models."""
    names = list(model_points)
    header = f"{'bytes':>9}"
    for name in names:
        header += f"{name + ' us':>16}{name + ' MB/s':>14}"
    lines = ["Point-to-point PUT latency and bandwidth", header,
             "-" * len(header)]
    sizes = [p.size_bytes for p in model_points[names[0]]]
    for i, size in enumerate(sizes):
        row = f"{size:>9}"
        for name in names:
            p = model_points[name][i]
            row += f"{p.one_way_us:>16.2f}{p.bandwidth_mb_s:>14.2f}"
        lines.append(row)
    for name in names:
        lines.append(f"n1/2({name}) = "
                     f"{half_bandwidth_point(model_points[name])} bytes")
    return "\n".join(lines)


def format_collective_table(
        model_rows: dict[str, list[CollectivePoint]]) -> str:
    lines = ["Collective cost vs machine size (us)"]
    for name, rows in model_rows.items():
        lines.append(f"{name}:")
        lines.append(f"{'cells':>8}{'barrier':>12}{'gop':>12}"
                     f"{'vgop(1KB)':>12}")
        for row in rows:
            lines.append(f"{row.cells:>8}{row.barrier_us:>12.2f}"
                         f"{row.gop_us:>12.2f}{row.vgop_1k_us:>12.2f}")
    return "\n".join(lines)
