"""Functional-machine observer and metric harvest.

Two layers, matching the cost budget:

* The **always-on hardware counters** (MSC+ stats, queue high-water
  marks, DMA byte counts, network delivery counts, fault-layer stats)
  accumulate during every run at no extra cost;
  :func:`machine_metrics` harvests them into one JSON document after
  the run.
* The **observer hooks** (per-link frame/byte accounting on T-net
  injection, B-net broadcast bytes, queue-occupancy time series sampled
  at every pump) only exist when a :class:`MachineObserver` is attached
  — via ``MachineConfig(observe=True)``.  Without one the hot paths pay
  a single ``is None`` test.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter
from typing import TYPE_CHECKING, Any

from repro.faults.plan import FaultStats
from repro.hardware.msc import MSCStats
from repro.obs.registry import MACHINE_SCHEMA

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine
    from repro.network.packet import Packet

_MSC_STAT_NAMES = tuple(f.name for f in fields(MSCStats))
#: One MSC+'s statistics as a row, in ``_MSC_STAT_NAMES`` order.
_MSC_COUNTERS = attrgetter(*_MSC_STAT_NAMES)

#: Occupancy series length bound; on overflow the series is decimated
#: (every other sample dropped) and the sampling stride doubled, keeping
#: the stored series deterministic for any run length.
MAX_SERIES_SAMPLES = 512


class MachineObserver:
    """Telemetry hooks for one functional machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        #: "a->b" directed physical link -> frames routed across it.
        self.link_frames: dict[str, int] = {}
        #: "a->b" directed physical link -> wire bytes routed across it.
        self.link_bytes: dict[str, int] = {}
        #: B-net broadcast accounting (shared bus, no per-link split).
        self.bnet_frames = 0
        self.bnet_bytes = 0
        #: [pump index, total queued words, busiest cell's words] samples.
        self._occupancy: list[list[int]] = []
        self._pump_index = 0
        self._sample_stride = 1
        self._route_cache: dict[tuple[int, int], tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Hooks (called from the networks / the pump loop)
    # ------------------------------------------------------------------

    def on_inject(self, packet: "Packet") -> None:
        """Charge one T-net frame to every physical link on its route."""
        key = (packet.src, packet.dst)
        links = self._route_cache.get(key)
        if links is None:
            prev = packet.src
            parts: list[str] = []
            for node in self.machine.topology.route(packet.src, packet.dst):
                parts.append(f"{prev}->{node}")
                prev = node
            links = tuple(parts)
            self._route_cache[key] = links
        nbytes = packet.wire_bytes
        for link in links:
            self.link_frames[link] = self.link_frames.get(link, 0) + 1
            self.link_bytes[link] = self.link_bytes.get(link, 0) + nbytes

    def on_broadcast(self, packet: "Packet") -> None:
        self.bnet_frames += 1
        self.bnet_bytes += packet.wire_bytes

    def sample_queues(self) -> None:
        """Record one MSC+ queue-occupancy sample (called at pump entry).

        Sampling is strided: when the series fills, every other sample
        is dropped and the stride doubles, so arbitrarily long runs keep
        a bounded, deterministic series.
        """
        idx = self._pump_index
        self._pump_index = idx + 1
        if idx % self._sample_stride:
            return
        total = 0
        peak = 0
        for cell in self.machine.hw_cells:
            words = cell.msc.queued_words()
            total += words
            if words > peak:
                peak = words
        self._occupancy.append([idx, total, peak])
        if len(self._occupancy) > MAX_SERIES_SAMPLES:
            self._occupancy = self._occupancy[::2]
            self._sample_stride *= 2

    @property
    def occupancy_series(self) -> list[list[int]]:
        return self._occupancy


def machine_metrics(machine: "Machine") -> dict[str, Any]:
    """Harvest one machine's counters into a JSON-native document.

    Works on any machine; the link table, broadcast bytes, and the
    occupancy series additionally require an attached observer (the
    ``observed`` field says whether one was present).
    """
    obs = getattr(machine, "obs", None)
    queues: dict[str, Any] = {"per_cell_high_water_words": []}
    # Five queues on every cell: counters are read by attribute and
    # summed in locals, not through a dict per queue.
    pushed = popped = spilled = refills = allocations = 0
    dma = {
        "send_operations": 0,
        "send_bytes": 0,
        "recv_operations": 0,
        "recv_bytes": 0,
        "largest_transfer": 0,
    }
    for cell in machine.hw_cells:
        msc = cell.msc
        cell_high = 0
        for queue in msc.all_queues():
            # Every counter of a queue counts pushes or what became of
            # them, and a wide machine is mostly queues never pushed to.
            if not queue.pushed:
                continue
            if queue.high_water_words > cell_high:
                cell_high = queue.high_water_words
            pushed += queue.pushed
            popped += queue.popped
            spilled += queue.spilled
            refills += queue.refill_interrupts
            allocations += queue.allocation_interrupts
        queues["per_cell_high_water_words"].append(cell_high)
        dma["send_operations"] += msc.send_dma.operations
        dma["send_bytes"] += msc.send_dma.bytes_moved
        dma["recv_operations"] += msc.recv_dma.operations
        dma["recv_bytes"] += msc.recv_dma.bytes_moved
        dma["largest_transfer"] = max(dma["largest_transfer"],
                                      msc.send_dma.largest_transfer,
                                      msc.recv_dma.largest_transfer)
    msc_totals = dict(zip(_MSC_STAT_NAMES, map(sum, zip(
        *[_MSC_COUNTERS(cell.msc.stats) for cell in machine.hw_cells]))))
    queues.update(pushed=pushed, popped=popped, spilled=spilled,
                  refill_interrupts=refills,
                  allocation_interrupts=allocations)
    queues["max_high_water_words"] = max(
        queues["per_cell_high_water_words"], default=0)
    queues["occupancy_series"] = (
        [list(sample) for sample in obs.occupancy_series]
        if obs is not None else [])
    tnet = machine.tnet
    links = {}
    if obs is not None:
        links = {
            link: {"frames": obs.link_frames[link],
                   "bytes": obs.link_bytes[link]}
            for link in sorted(obs.link_frames)
        }
    network = {
        "tnet_injected": tnet.injected_count,
        "tnet_delivered": tnet.delivered_count,
        "links": links,
        "bnet_broadcasts": machine.bnet.broadcast_count,
        "bnet_frames": obs.bnet_frames if obs is not None else 0,
        "bnet_bytes": obs.bnet_bytes if obs is not None else 0,
        "snet_barriers": machine.snet.episodes_completed,
    }
    stats = getattr(tnet, "stats", None)
    faults = (stats if stats is not None else FaultStats()).state()
    return {
        "schema": MACHINE_SCHEMA,
        "observed": obs is not None,
        "network": network,
        "queues": queues,
        "dma": dma,
        "msc": msc_totals,
        "faults": faults,
    }
