"""Functional model of the B-net broadcast network.

The B-net is a 50 MB/s bus shared by the host and all cells, used for
broadcast communication and for data distribution/collection (Figure 4).
Functionally it is a single FIFO: one sender's broadcast is seen by every
(other) cell, in the same order everywhere — a total order, unlike the
per-pair order of the T-net.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import CommunicationError
from repro.core.state import Stateful
from repro.network.packet import Packet

#: Peak B-net bandwidth in megabytes per second.
BNET_BANDWIDTH_MB_S = 50.0

#: Pseudo cell id used for the host workstation on the B-net.
HOST_ID = -1


@dataclass
class BNet(Stateful):
    """Totally ordered broadcast transport."""

    num_cells: int
    _queues: dict[int, deque[Packet]] = field(default_factory=dict)
    broadcast_count: int = 0
    #: Next serial stamped on a packet entering the bus (per instance).
    _next_serial: int = 0
    #: Optional :class:`repro.obs.observer.MachineObserver`; its
    #: ``on_broadcast`` hook counts shared-bus frames and bytes.
    observer: Any = None
    _wiring = frozenset({"observer"})

    def _queue(self, cell_id: int) -> deque[Packet]:
        return self._queues.setdefault(cell_id, deque())

    def broadcast(self, packet: Packet) -> None:
        """Send ``packet`` to every cell except the source.

        The source may be a cell or :data:`HOST_ID`.
        """
        if packet.src != HOST_ID and not 0 <= packet.src < self.num_cells:
            raise CommunicationError(f"invalid broadcast source {packet.src}")
        if packet.serial < 0:
            packet.serial = self._next_serial
            self._next_serial += 1
        for cell in range(self.num_cells):
            if cell != packet.src:
                self._queue(cell).append(packet)
        self.broadcast_count += 1
        if self.observer is not None:
            self.observer.on_broadcast(packet)

    def scatter(self, packets: list[Packet]) -> None:
        """Host-style data distribution: point-to-point over the shared bus."""
        for packet in packets:
            if not 0 <= packet.dst < self.num_cells:
                raise CommunicationError(
                    f"invalid scatter target {packet.dst}")
            if packet.serial < 0:
                packet.serial = self._next_serial
                self._next_serial += 1
            self._queue(packet.dst).append(packet)

    def receive(self, cell_id: int) -> Packet:
        """Pop the next broadcast visible at ``cell_id``."""
        queue = self._queue(cell_id)
        if not queue:
            raise CommunicationError(f"no broadcast pending at cell {cell_id}")
        return queue.popleft()

    def pending(self, cell_id: int) -> int:
        return len(self._queue(cell_id))

    def transfer_time_us(self, payload_bytes: int) -> float:
        """Bus time for a payload at peak bandwidth, in microseconds."""
        return payload_bytes / BNET_BANDWIDTH_MB_S
