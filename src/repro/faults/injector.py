"""Wire-level fault injection: a T-net that misbehaves on schedule.

:class:`FaultyTNet` replaces the perfect :class:`~repro.network.tnet.TNet`
when a :class:`~repro.faults.plan.FaultPlan` is active.  Packets entering
:meth:`inject` are handed to the reliable transport for framing (sequence
number + checksum); the transport then calls :meth:`transmit` for the
actual wire crossing, where the plan's seeded RNG decides per frame
whether to drop, duplicate, corrupt, or delay it.

Delayed frames are held in a side buffer and released into their channel
after N drain rounds — which reorders them against other flows while the
per-flow resequencer in the transport restores the FIFO order the
acknowledge idiom depends on.  A held frame still counts as *injected*
(in flight), so the machine's pump loop keeps draining until every delay
has expired; nothing can be stranded.

Every fault decision is appended to :attr:`FaultyTNet.schedule`, the
byte-for-byte replayable record the chaos determinism tests compare.
"""

from __future__ import annotations

import dataclasses

from repro.core.errors import CommTimeoutError
from repro.faults.plan import FaultPlan, FaultStats
from repro.network.bnet import BNet
from repro.network.packet import LINK_CONTROL_KINDS, Packet
from repro.network.tnet import TNet
from repro.network.topology import TorusTopology


class FaultyTNet(TNet):
    """A T-net whose wire obeys a seeded :class:`FaultPlan`."""

    _wiring = TNet._wiring | {"plan", "rng", "transport"}

    def __init__(self, topology: TorusTopology, plan: FaultPlan,
                 rng) -> None:
        super().__init__(topology)
        self.plan = plan
        self.rng = rng
        self.stats = FaultStats()
        #: Cells declared dead; frames toward them fall off the wire.
        self.killed: set[int] = set()
        #: Replayable log of fault decisions:
        #: (action, packet-kind, src, dst, link_seq) tuples.
        self.schedule: list[tuple[str, str, int, int, int]] = []
        #: Frames being delayed: [rounds_left, packet] entries.
        self._delayed: list[list] = []
        #: Set by the Machine after construction; frames route through it.
        self.transport = None

    # ------------------------------------------------------------------
    # Injection: frame first, then cross the wire
    # ------------------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        self.validate_endpoints(packet)
        if self.transport is None or packet.kind in LINK_CONTROL_KINDS:
            # Control frames are framed by the transport itself and enter
            # through transmit(); anything else arriving before the
            # transport is wired up takes the perfect-wire path.
            super().inject(packet)
            return
        self.transport.outbound(packet)

    def transmit(self, packet: Packet) -> None:
        """Cross the faulty wire once (called for framed data frames,
        retransmissions, and link control frames alike)."""
        plan, rng = self.plan, self.rng
        self.stats.frames_sent += 1
        if packet.dst in self.killed:
            self.stats.blackholed += 1
            self._log("blackhole", packet)
            return
        if plan.drop_rate and rng.random() < plan.drop_rate:
            self.stats.dropped += 1
            self._log("drop", packet)
            return
        copies = [packet]
        if plan.dup_rate and rng.random() < plan.dup_rate:
            copies.append(dataclasses.replace(packet))
            self.stats.duplicated += 1
            self._log("dup", packet)
        for copy in copies:
            if plan.corrupt_rate and rng.random() < plan.corrupt_rate:
                copy = self._corrupt(copy)
            if plan.delay_rate and rng.random() < plan.delay_rate:
                rounds = 1 + rng.randrange(plan.delay_max_rounds)
                self.stats.delayed += 1
                self._log(f"delay:{rounds}", copy)
                self._delayed.append([rounds, copy])
                self.injected_count += 1
            else:
                super().inject(copy)

    def _corrupt(self, packet: Packet) -> Packet:
        """Flip one payload bit (or mangle the checksum of an empty
        frame); the original stays pristine in the retransmit buffer."""
        rng = self.rng
        self.stats.corrupted += 1
        self._log("corrupt", packet)
        if packet.data:
            data = bytearray(packet.data)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            return dataclasses.replace(packet, data=bytes(data))
        return dataclasses.replace(
            packet, checksum=packet.checksum ^ 0xDEADBEEF)

    def _log(self, action: str, packet: Packet) -> None:
        self.schedule.append((action, packet.kind.value, packet.src,
                              packet.dst, packet.link_seq))

    # ------------------------------------------------------------------
    # Delay release: every drain round ages the held frames
    # ------------------------------------------------------------------

    def _tick_delayed(self) -> None:
        if not self._delayed:
            return
        still: list[list] = []
        for entry in self._delayed:
            entry[0] -= 1
            if entry[0] <= 0:
                # Already counted as injected when stashed; enter the
                # channel directly so the quiescence accounting balances.
                self._enqueue(entry[1])
            else:
                still.append(entry)
        self._delayed = still

    def drain_all(self) -> list[Packet]:
        self._tick_delayed()
        return super().drain_all()

    def drain_to(self, dst: int) -> list[Packet]:
        self._tick_delayed()
        return super().drain_to(dst)

    @property
    def in_flight(self) -> int:
        return super().in_flight + len(self._delayed)

    @property
    def delayed_frames(self) -> int:
        return len(self._delayed)


class FaultyBNet(BNet):
    """A B-net bus whose broadcasts obey the same fault plan.

    The B-net's receive side is a synchronous pull (cells poll their bus
    queue), so reliability is modelled at the bus interface itself: each
    per-receiver enqueue rolls the wire faults, and a dropped or corrupted
    copy is retried immediately (a NACK-on-the-spot bus protocol) until
    it lands or the retry budget is spent.  Duplicates are suppressed at
    the receiving interface — the bus is totally ordered, so a repeated
    sequence number is trivially detectable.  Functional semantics are
    therefore identical to the perfect bus; the fault and retry counters
    (shared with the T-net's :class:`FaultStats`) record the weather."""

    _wiring = BNet._wiring | {"plan", "rng", "stats"}

    def __init__(self, num_cells: int, plan: FaultPlan, rng,
                 stats: FaultStats) -> None:
        super().__init__(num_cells)
        self.plan = plan
        self.rng = rng
        self.stats = stats

    def _queue_append(self, cell: int, packet: Packet) -> None:
        plan, rng = self.plan, self.rng
        for attempt in range(plan.max_retries + 1):
            if attempt:
                self.stats.retries += 1
            if plan.drop_rate and rng.random() < plan.drop_rate:
                self.stats.dropped += 1
                continue
            if plan.dup_rate and rng.random() < plan.dup_rate:
                # The duplicate copy is discarded by the receiving
                # interface (repeated bus sequence number).
                self.stats.duplicated += 1
                self.stats.dup_discarded += 1
            if plan.corrupt_rate and rng.random() < plan.corrupt_rate:
                # Checksum mismatch at the interface: NACK and re-send.
                self.stats.corrupted += 1
                self.stats.corrupt_discarded += 1
                self.stats.nacks_sent += 1
                continue
            self._queue(cell).append(packet)
            return
        raise CommTimeoutError(
            f"B-net broadcast from {packet.src} to cell {cell} failed "
            f"after {plan.max_retries} retries under fault plan "
            f"{plan.name!r}")

    def broadcast(self, packet: Packet) -> None:
        if packet.src != -1 and not 0 <= packet.src < self.num_cells:
            super().broadcast(packet)  # reuse the validation error path
        for cell in range(self.num_cells):
            if cell != packet.src:
                self._queue_append(cell, packet)
        self.broadcast_count += 1
        if self.observer is not None:
            self.observer.on_broadcast(packet)

    def scatter(self, packets: list[Packet]) -> None:
        for packet in packets:
            if not 0 <= packet.dst < self.num_cells:
                super().scatter([packet])  # reuse the validation error
            self._queue_append(packet.dst, packet)
