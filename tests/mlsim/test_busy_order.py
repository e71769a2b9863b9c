"""DMA and link busy times are sums in trace-row order.

What a message keeps a DMA or a link busy for depends on the trace and
the preset only, so the replay sums it outside its pass
(``engine_soa._Program.busy``), in trace-row order: PE by PE, each PE's
rows in order, a GET's request before its reply.  On FT and SP at
bench size the pass visits those rows in another order, and a sum in
that order ends in other last bits.  These tests hold the replay's
sums, under every preset and every option, to a plain Python sum in
row order, one ``put_model`` cost and one ``TorusTopology.route`` per
message.
"""

from __future__ import annotations

import pytest

from repro.bench.grid import bench_specs
from repro.mlsim import put_model as pm
from repro.mlsim.engine_soa import replay_columns
from repro.mlsim.params import preset
from repro.network.topology import TorusTopology
from repro.trace.events import EventKind
from repro.trace.soa import columns_from_buffer

PRESETS = ("ap1000", "ap1000-fast", "ap1000+")
OPTIONS = ({}, {"record_timeline": True}, {"link_contention": True})


@pytest.fixture(scope="module", params=["FT", "SP"])
def columns(request):
    spec, = (s for s in bench_specs() if s.app == request.param)
    return columns_from_buffer(spec.run().trace)


def row_order_sums(columns, params) -> tuple[list[float], dict]:
    """Each PE's DMA busy time and each link's (by ``"a->b"``), added
    row by row."""
    topology = TorusTopology.for_cells(columns.num_pes)
    dma = [0.0] * columns.num_pes
    links: dict[str, float] = {}

    def charge(src: int, dst: int, wire: float) -> None:
        hops = topology.route(src, dst) if src != dst else []
        for tail, head in zip([src, *hops], hops):
            key = f"{tail}->{head}"
            links[key] = links.get(key, 0.0) + wire

    kind, partner, size = (column.tolist() for column in (
        columns.kind, columns.partner, columns.size))
    starts = columns.starts.tolist()
    for pe in range(columns.num_pes):
        for row in range(starts[pe], starts[pe + 1]):
            k, q, nbytes = EventKind(kind[row]), partner[row], size[row]
            if k not in (EventKind.PUT, EventKind.GET, EventKind.SEND):
                continue
            wire = pm.network_time(params, nbytes, topology.distance(pe, q))
            if k is EventKind.GET:
                dma[q] += pm.get_reply_service_time(params, nbytes)
                charge(pe, q, pm.network_time(params, 0,
                                              topology.distance(pe, q)))
                charge(q, pe, wire)
            else:
                dma[pe] += pm.dma_drain_time(params, nbytes)
                charge(pe, q, wire)
    return dma, links


@pytest.mark.parametrize("name", PRESETS)
def test_busy_times_are_row_order_sums(columns, name):
    params = preset(name)
    dma, links = row_order_sums(columns, params)
    assert links
    for options in OPTIONS:
        metrics = replay_columns(columns, params, collect_metrics=True,
                                 **options).metrics
        assert metrics["dma"]["busy_us"] == dma, options
        assert {key: link["busy_us"] for key, link
                in metrics["links"].items()} == links, options
