"""Functional model of the T-net point-to-point torus network.

The T-net uses static (dimension-order) routing, so packets between a fixed
(source, destination) pair never reorder.  The functional model enforces
exactly that invariant: one FIFO channel per ordered cell pair.  Timing is
not modelled here — MLSim (:mod:`repro.mlsim`) charges network time from its
parameter file; this model is about *ordering and delivery semantics*, which
the acknowledge idiom (GET after PUT) depends on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from repro.core.errors import CommunicationError
from repro.core.state import Stateful
from repro.network.packet import Packet
from repro.network.topology import TorusTopology

#: Peak bandwidth of one T-net link in megabytes per second (Table 1 / Fig 5).
LINK_BANDWIDTH_MB_S = 25.0
#: Number of parallel links per cell.
LINKS_PER_CELL = 4


class _Channel(deque[Packet]):
    """The FIFO of one ordered (src, dst) pair.

    ``rank`` is the channel's creation order; draining channels by rank
    keeps packets that share a serial (duplicated or never-stamped frames
    of the fault layer) in the order a scan of every channel would.
    """

    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        super().__init__()
        self.rank = rank


_serial = attrgetter("serial")


@dataclass
class TNet(Stateful):
    """In-order per-pair packet transport over a 2-D torus."""

    topology: TorusTopology
    _channels: dict[tuple[int, int], _Channel] = field(
        default_factory=dict)
    #: Channels (by rank) that took a packet since the last
    #: :meth:`drain_all`; every non-empty channel is in here.
    _fresh: dict[int, _Channel] = field(default_factory=dict)
    delivered_count: int = 0
    injected_count: int = 0
    #: Next serial to stamp on a first-time injection (per network
    #: instance, so serials are deterministic per machine run).
    _next_serial: int = 0
    #: Optional :class:`repro.obs.observer.MachineObserver`; its
    #: ``on_inject`` hook charges per-link frame/byte counters.
    observer: Any = None
    #: Receive ports, plugged by a machine whose wire is perfect: one
    #: entry per cell (its MSC+), and ``arrive(port, packet)``, to which
    #: :meth:`inject` hands an admitted packet with its destination's
    #: entry, so the wire never holds a frame.  None (a bare network,
    #: the fault layer's) means queue-and-drain.
    ports: list[Any] | None = None
    arrive: Callable[[Any, Packet], None] = field(
        default=lambda port, packet: None)
    #: ``_channels`` / ``_fresh`` index one another by rank, so frames on
    #: the wire ride as one packet list and come back through ``_enqueue``.
    _wiring = frozenset({"topology", "observer", "ports", "arrive",
                         "_channels", "_fresh"})

    def state(self) -> dict[str, Any]:
        wire = [packet for queue in self._channels.values()
                for packet in queue]
        return {**super().state(), "wire": wire}

    def load_state(self, saved: dict[str, Any]) -> None:
        super().load_state({k: v for k, v in saved.items() if k != "wire"})
        self._channels.clear()
        self._fresh.clear()
        for packet in saved["wire"]:
            self._enqueue(packet)

    def validate_endpoints(self, packet: Packet) -> None:
        """Reject packets addressed outside the machine."""
        n = self.topology.num_cells
        if not (0 <= packet.src < n and 0 <= packet.dst < n):
            raise CommunicationError(
                f"packet endpoints ({packet.src} -> {packet.dst}) outside "
                f"{n}-cell machine"
            )

    def inject(self, packet: Packet) -> None:
        """Accept a packet from a cell's MSC+ for transport.

        A packet entering the network for the first time is stamped with
        the next serial; a retransmission (fault layer) keeps the serial
        of its first crossing so SEND/RECEIVE matching survives retries.
        With :attr:`ports` plugged the packet is at its destination when
        this returns, replies it triggered included.
        """
        ports = self.ports
        if ports is not None:
            self.admit(packet)
            self.arrive(ports[packet.dst], packet)
            return
        self._enqueue(packet)
        if packet.serial < 0:
            packet.serial = self._next_serial
            self._next_serial += 1
        self.injected_count += 1
        if self.observer is not None:
            self.observer.on_inject(packet)

    def admit(self, packet: Packet) -> None:
        """One crossing of a perfect wire, accounted in one step: the
        endpoint check, the serial, both counters and the observer hook
        (a refused packet draws no serial)."""
        n = self.topology.num_cells
        if not (0 <= packet.src < n and 0 <= packet.dst < n):
            self.validate_endpoints(packet)
        if packet.serial < 0:
            packet.serial = self._next_serial
            self._next_serial += 1
        self.injected_count += 1
        self.delivered_count += 1
        if self.observer is not None:
            self.observer.on_inject(packet)

    def admit_run(self, count: int) -> None:
        """``count`` crossings of a perfect wire between cells of this
        machine, unobserved, accounted as :meth:`admit` accounts each:
        serials and both counters."""
        self._next_serial += count
        self.injected_count += count
        self.delivered_count += count

    def _enqueue(self, packet: Packet) -> None:
        """Append to the packet's channel: the one way into the wire.

        Endpoints are checked when a flow's channel is created, so a
        channel exists only between cells of this machine and a packet
        on an existing flow needs no check of its own.
        """
        flow = (packet.src, packet.dst)
        channel = self._channels.get(flow)
        if channel is None:
            self.validate_endpoints(packet)
            channel = self._channels[flow] = _Channel(len(self._channels))
        channel.append(packet)
        self._fresh[channel.rank] = channel

    def pending(self, src: int, dst: int) -> int:
        """Number of packets in flight from ``src`` to ``dst``."""
        return len(self._channels.get((src, dst), ()))

    def pending_for(self, dst: int) -> int:
        """Number of packets in flight toward ``dst`` from anyone."""
        return sum(
            len(q) for (s, d), q in self._channels.items() if d == dst
        )

    def pending_from(self, src: int) -> int:
        """Number of packets in flight out of ``src`` toward anyone."""
        return sum(
            len(q) for (s, d), q in self._channels.items() if s == src
        )

    def deliver_next(self, src: int, dst: int) -> Packet:
        """Pop the oldest in-flight packet on the (src, dst) channel."""
        queue = self._channels.get((src, dst))
        if not queue:
            raise CommunicationError(
                f"no packet in flight from {src} to {dst}")
        self.delivered_count += 1
        return queue.popleft()

    def drain_to(self, dst: int) -> list[Packet]:
        """Deliver every in-flight packet destined to ``dst``.

        Packets from different sources are interleaved by injection order
        (their serial numbers), which is one legal network ordering; packets
        from the same source stay in order, which is the *guaranteed*
        ordering.
        """
        ready: list[Packet] = []
        for (_src, d), queue in self._channels.items():
            if d == dst:
                ready.extend(queue)
                queue.clear()
        ready.sort(key=_serial)
        self.delivered_count += len(ready)
        return ready

    def drain_all(self) -> list[Packet]:
        """Deliver everything in flight, in injection order."""
        fresh = self._fresh
        ready: list[Packet] = []
        for rank in sorted(fresh):
            queue = fresh[rank]
            ready.extend(queue)
            queue.clear()
        fresh.clear()
        if len(ready) > 1:
            ready.sort(key=_serial)
        self.delivered_count += len(ready)
        return ready

    @property
    def in_flight(self) -> int:
        return sum(len(q) for q in self._channels.values())

    def transfer_time_us(self, payload_bytes: int) -> float:
        """Wire time for a payload at peak link bandwidth, in microseconds."""
        return payload_bytes / LINK_BANDWIDTH_MB_S
