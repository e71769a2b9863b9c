"""MSC+ command queues with DRAM spill on overflow.

The MSC+ holds five queues in its own RAM (section 4.1):

* three *send* queues — user PUT/GET, system PUT/GET, and remote access —
  so that system use never has to save/restore user entries, and remote
  loads (which stall the processor) are privileged over PUT/GET; and
* two *reply* queues — GET replies and remote-load replies — with remote
  load replies preceding GET replies.

Each queue is at most 64 words.  When a queue fills, the MSC+ spills every
subsequently written word directly into a pre-allocated DRAM buffer; when
the queue drains, it interrupts the operating system, which reloads the
spilled words back into the queue.  If the DRAM buffer itself fills, the
OS is interrupted to allocate a new buffer.  The model counts both kinds
of interrupt so timing layers can charge them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.errors import QueueOverflowError
from repro.core.state import Stateful

QUEUE_WORDS = 64
#: Default capacity of one spill buffer in DRAM, in words.
DEFAULT_SPILL_WORDS = 1024
#: PUT/GET commands are written as 8 words of parameters (section 4.1).
COMMAND_WORDS = 8


@dataclass
class CommandQueue(Stateful):
    """A fixed-size word queue that spills to DRAM buffers on overflow.

    Entries are (command, word_count) pairs; occupancy is tracked in words
    because the hardware queue is sized in words (64), i.e. eight plain
    PUT/GET commands.  ``pushed - popped`` is the number of commands
    held (queue RAM plus spill), so the MSC+ pump finds a queue empty by
    comparing two counters instead of calling into it.  The queue RAM
    and the spill are made at their first command: a queue every
    command passes through (:meth:`pass_through`) never owns either.
    """

    name: str
    capacity_words: int = QUEUE_WORDS
    spill_buffer_words: int = DEFAULT_SPILL_WORDS
    max_spill_buffers: int | None = None
    _queue: deque[tuple[Any, int]] | None = None
    _spill: deque[tuple[Any, int]] | None = None
    _queue_words: int = 0
    _spill_words: int = 0
    _spill_buffers_allocated: int = 1
    refill_interrupts: int = 0
    allocation_interrupts: int = 0
    pushed: int = 0
    popped: int = 0
    spilled: int = 0
    high_water_words: int = 0
    #: Observer invoked as ``on_spill(cell, queue_name, words)`` every
    #: time a command streams past the hardware queue into DRAM.  The
    #: functional machine points every queue at one method that makes
    #: spills SPILL events of its trace.
    on_spill: Callable[[int, str, int], None] | None = None
    #: The cell whose MSC+ holds this queue, as hooks are told it.
    cell: int = 0
    #: Told ``on_hold(cell)`` by every push; set on the queues of an
    #: observed machine, whose occupancy samples read only the cells
    #: they were told of.
    on_hold: Callable[[int], None] | None = None
    _wiring = frozenset({"on_spill", "cell", "on_hold"})
    _lazy = {"_queue": deque, "_spill": deque}

    def push(self, command: Any, words: int = COMMAND_WORDS) -> None:
        """Enqueue a command of ``words`` parameter words.

        Once spilling has begun, *all* subsequent commands go to the DRAM
        buffer (the hardware streams post-overflow writes straight to
        DRAM) until a refill empties it, preserving FIFO order.
        """
        if words <= 0:
            raise QueueOverflowError("command must occupy at least one word")
        if self._spill or self._queue_words + words > self.capacity_words:
            self._spill_push(command, words)
        else:
            if self._queue is None:
                self._queue = deque()
            self._queue.append((command, words))
            self._queue_words += words
        self.pushed += 1
        held = self._queue_words + self._spill_words
        if held > self.high_water_words:
            self.high_water_words = held
        if self.on_hold is not None:
            self.on_hold(self.cell)

    def pass_through(self, command: Any, words: int = COMMAND_WORDS,
                     observe: Callable[[int], None] | None = None) -> bool:
        """Push ``command`` for a controller that takes it as it lands.

        In an empty queue with room, a command waits for nothing: it is
        counted pushed, popped and at the high-water mark without
        entering the queue, and ``observe(cell)`` runs while it still
        counts as held.  Behind older commands, or too large to fit, it
        is pushed as usual (``observe(cell)`` runs after the push), and
        False tells the caller to drain the queue in order.
        """
        if self.pushed != self.popped or not 0 < words <= self.capacity_words:
            self.push(command, words)
            if observe is not None:
                observe(self.cell)
            return False
        self.pushed += 1
        if words > self.high_water_words:
            self.high_water_words = words
        if observe is not None:
            self._queue_words = words
            observe(self.cell)
            self._queue_words = 0
        self.popped += 1
        return True

    def pass_through_run(self, times: int,
                         words: int = COMMAND_WORDS) -> None:
        """Count ``times`` commands of ``words`` words through, as
        :meth:`pass_through` counts each one that waits for nothing
        (the caller found this queue empty, the words fitting and no
        one observing)."""
        if times:
            self.pushed += times
            self.popped += times
            if words > self.high_water_words:
                self.high_water_words = words

    def _spill_push(self, command: Any, words: int) -> None:
        capacity = self._spill_buffers_allocated * self.spill_buffer_words
        if self._spill_words + words > capacity:
            if (self.max_spill_buffers is not None
                    and (self._spill_buffers_allocated
                         >= self.max_spill_buffers)):
                raise QueueOverflowError(
                    f"queue '{self.name}': DRAM spill exhausted "
                    f"({self._spill_buffers_allocated} buffers of "
                    f"{self.spill_buffer_words} words)"
                )
            # The MSC+ interrupts the OS, which allocates a new buffer.
            self._spill_buffers_allocated += 1
            self.allocation_interrupts += 1
        if self._spill is None:
            self._spill = deque()
        self._spill.append((command, words))
        self._spill_words += words
        self.spilled += 1
        if self.on_spill is not None:
            self.on_spill(self.cell, self.name, words)

    def pop(self) -> Any:
        """Dequeue the oldest command, refilling from the spill buffer."""
        if not self._queue:
            self._refill()
        if not self._queue:
            raise QueueOverflowError(f"queue '{self.name}' is empty")
        command, words = self._queue.popleft()
        self._queue_words -= words
        self.popped += 1
        if not self._queue and self._spill:
            self._refill()
        return command

    def _refill(self) -> None:
        """OS interrupt handler: move spilled words back into the queue."""
        if not self._spill:
            return
        self.refill_interrupts += 1
        if self._queue is None:
            self._queue = deque()
        while self._spill:
            command, words = self._spill[0]
            if self._queue_words + words > self.capacity_words:
                break
            self._spill.popleft()
            self._spill_words -= words
            self._queue.append((command, words))
            self._queue_words += words
        if not self._spill:
            self._spill_buffers_allocated = 1

    def __len__(self) -> int:
        return len(self._queue or ()) + len(self._spill or ())

    def __bool__(self) -> bool:
        return bool(self._queue or self._spill)

    @property
    def words_in_queue(self) -> int:
        return self._queue_words

    @property
    def words_spilled(self) -> int:
        return self._spill_words
