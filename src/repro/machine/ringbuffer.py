"""Ring buffers for the SEND/RECEIVE model (section 4.3).

The AP1000+ keeps receive buffers — *ring buffers* — in main memory.  SEND
uses the same hardware mechanism as PUT but targets the destination's ring
buffer instead of a user address; RECEIVE searches the ring buffer and
copies the matching message into the user area.  "If the ring buffer
becomes full, the MSC+ interrupts the operating system, which then
allocates a new buffer."

Vector global reductions execute directly out of the ring buffer — the
data is used once, so no copy to a user area is needed, "which eliminates
the message copy overhead" (section 4.5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.state import Stateful
from repro.network.packet import Packet

#: Default ring buffer capacity in bytes.
DEFAULT_RING_BYTES = 256 * 1024


@dataclass
class RingBuffer(Stateful):
    """One cell's receive ring buffer; its message deque is made at the
    first deposit."""

    capacity_bytes: int = DEFAULT_RING_BYTES
    _messages: deque[Packet] | None = None
    bytes_buffered: int = 0
    allocation_interrupts: int = 0
    extra_buffers: int = 0
    deposits: int = 0
    copies_out: int = 0
    high_water_bytes: int = 0
    _lazy = {"_messages": deque}

    def deposit(self, packet: Packet) -> None:
        """The MSC+ writes an arriving SEND message into the ring."""
        size = packet.payload_bytes
        while self.bytes_buffered + size > self.current_capacity:
            # Full: the MSC+ interrupts the OS, which allocates a new buffer.
            self.extra_buffers += 1
            self.allocation_interrupts += 1
        if self._messages is None:
            self._messages = deque()
        self._messages.append(packet)
        self.bytes_buffered += size
        self.deposits += 1
        self.high_water_bytes = max(self.high_water_bytes, self.bytes_buffered)

    @property
    def current_capacity(self) -> int:
        return self.capacity_bytes * (1 + self.extra_buffers)

    def search(self, src: int | None = None,
               context: int | None = None) -> Packet | None:
        """Find (without removing) the oldest message matching the filters."""
        for packet in self._messages or ():
            if src is not None and packet.src != src:
                continue
            if context is not None and packet.context != context:
                continue
            return packet
        return None

    def receive(self, src: int | None = None,
                context: int | None = None) -> Packet | None:
        """RECEIVE: search and remove the oldest matching message.

        Returns None when nothing matches (the caller blocks and retries).
        The copy into the user area is the receiver's job; this method
        counts it so the copy-elimination claim of section 4.5 is testable.
        """
        found = self.search(src=src, context=context)
        if found is None or self._messages is None:
            return None
        self._messages.remove(found)
        self.bytes_buffered -= found.payload_bytes
        self.copies_out += 1
        return found

    def consume_in_place(self, src: int | None = None,
                         context: int | None = None) -> Packet | None:
        """Use a message directly out of the ring without the user-area copy
        (the vector-reduction path of section 4.5)."""
        found = self.search(src=src, context=context)
        if found is None or self._messages is None:
            return None
        self._messages.remove(found)
        self.bytes_buffered -= found.payload_bytes
        return found

    def __len__(self) -> int:
        return len(self._messages or ())
