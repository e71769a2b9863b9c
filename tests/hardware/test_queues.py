"""Unit tests for MSC+ command queues and DRAM spill (section 4.1)."""

from collections import deque

import pytest

from repro.core.errors import QueueOverflowError
from repro.hardware.queues import COMMAND_WORDS, QUEUE_WORDS, CommandQueue


class TestBasics:
    def test_fifo_order(self):
        q = CommandQueue("t")
        q.push("a")
        q.push("b")
        assert q.pop() == "a"
        assert q.pop() == "b"

    def test_word_capacity_is_64(self):
        q = CommandQueue("t")
        assert q.capacity_words == QUEUE_WORDS == 64
        # Eight 8-word PUT commands exactly fill the queue.
        for i in range(8):
            q.push(i)
        assert q.words_in_queue == 64
        assert q.words_spilled == 0

    def test_pop_empty_fails(self):
        with pytest.raises(QueueOverflowError):
            CommandQueue("t").pop()

    def test_zero_word_command_rejected(self):
        with pytest.raises(QueueOverflowError):
            CommandQueue("t").push("x", words=0)

    def test_len_and_bool(self):
        q = CommandQueue("t")
        assert not q
        q.push("a")
        assert len(q) == 1 and q


class TestSpill:
    def test_ninth_command_spills_to_dram(self):
        q = CommandQueue("t")
        for i in range(9):
            q.push(i)
        assert q.words_spilled == COMMAND_WORDS
        assert q.spilled == 1

    def test_order_preserved_across_spill(self):
        q = CommandQueue("t")
        for i in range(20):
            q.push(i)
        assert [q.pop() for _ in range(20)] == list(range(20))

    def test_post_overflow_writes_go_to_dram_until_refill(self):
        q = CommandQueue("t")
        for i in range(9):
            q.push(i)
        q.pop()          # frees queue space...
        q.push(100)      # ...but spill is still draining: goes to DRAM
        assert q.spilled >= 2

    def test_refill_interrupts_counted(self):
        q = CommandQueue("t")
        for i in range(16):
            q.push(i)
        while q:
            q.pop()
        assert q.refill_interrupts >= 1

    def test_dram_buffer_allocation_interrupt(self):
        q = CommandQueue("t", spill_buffer_words=16)
        # 8 commands fill the queue; the next 2 fill one spill buffer; the
        # next one needs a new buffer -> allocation interrupt.
        for i in range(11):
            q.push(i)
        assert q.allocation_interrupts == 1

    def test_spill_exhaustion_raises(self):
        q = CommandQueue("t", spill_buffer_words=8, max_spill_buffers=1)
        for i in range(9):
            q.push(i)
        with pytest.raises(QueueOverflowError):
            q.push(9)

    def test_high_water_mark(self):
        q = CommandQueue("t")
        for i in range(10):
            q.push(i)
        assert q.high_water_words == 80

    def test_drain(self):
        q = CommandQueue("t")
        for i in range(12):
            q.push(i)
        assert [q.pop() for _ in range(len(q))] == list(range(12))
        assert not q

    def test_exhaustion_error_names_queue_and_budget(self):
        q = CommandQueue("reply", spill_buffer_words=8, max_spill_buffers=2)
        with pytest.raises(QueueOverflowError) as err:
            for i in range(100):
                q.push(i)
        message = str(err.value)
        assert "'reply'" in message
        assert "2 buffers of 8 words" in message


class TestStorageAtFirstCommand:
    def test_a_drained_queue_saves_as_one_never_used(self):
        # A queue makes its RAM and spill deques at its first command;
        # until then, and once drained, its state reads the same.
        never, drained = CommandQueue("t"), CommandQueue("t")
        assert never.pass_through("a")         # counted, never held
        drained.push("b")
        assert drained.pop() == "b"
        assert never._queue is None and drained._queue is not None
        assert drained.state() == never.state()
        assert never.state()["_queue"] == never.state()["_spill"] == deque()

    def test_a_spilled_and_refilled_queue_saves_as_one_never_used(self):
        never, spilled = CommandQueue("t", capacity_words=8), CommandQueue(
            "t", capacity_words=8)
        for command in range(3):
            spilled.push(command)
        assert [spilled.pop() for _ in range(3)] == [0, 1, 2]
        for name in ("pushed", "popped", "spilled", "high_water_words",
                     "refill_interrupts"):
            setattr(never, name, getattr(spilled, name))
        assert spilled.state() == never.state()

    def test_a_push_names_the_queue_cell_to_on_hold(self):
        told = []
        q = CommandQueue("t", cell=7)
        q.on_hold = told.append
        assert q.pass_through("passes")
        q.push("held")
        assert told == [7]


class TestPassThrough:
    def test_empty_queue_counts_without_holding(self):
        q = CommandQueue("t")
        held = []
        assert q.pass_through("a", 12,
                              lambda cell: held.append(q.words_in_queue))
        assert held == [12]        # observed while it counts as queued
        assert (q.pushed, q.popped, q.high_water_words) == (1, 1, 12)
        assert not q and q.words_in_queue == 0
        assert q.pass_through("b")
        assert (q.pushed, q.popped, q.high_water_words) == (2, 2, 12)

    def test_queues_behind_older_commands(self):
        q = CommandQueue("t")
        q.push("old")
        held = []
        assert not q.pass_through("new", 8, lambda cell: held.append(len(q)))
        assert held == [2]
        assert [q.pop(), q.pop()] == ["old", "new"]

    def test_command_larger_than_the_queue_spills_as_a_push(self):
        spilled = []
        q = CommandQueue("t", capacity_words=8)
        q.on_spill = lambda cell, name, words: spilled.append(words)
        assert not q.pass_through("stride", 12)
        assert spilled == [12] and q.spilled == 1 and q.pushed == 1


class TestSpillObserver:
    def test_on_spill_sees_every_spilled_command(self):
        seen = []
        q = CommandQueue("user_send")
        q.on_spill = lambda cell, name, words: seen.append((name, words))
        for i in range(8):
            q.push(i)
        assert seen == []          # the hardware queue absorbed them all
        q.push(8)
        q.push(9, words=12)        # a strided command spills too
        assert seen == [("user_send", 8), ("user_send", 12)]
        assert q.spilled == len(seen)

    def test_observer_fires_for_post_overflow_stream(self):
        seen = []
        q = CommandQueue("t")
        q.on_spill = lambda cell, name, words: seen.append(words)
        for i in range(9):
            q.push(i)
        q.pop()
        q.push(100)   # queue has room, but the spill is still draining
        assert len(seen) == 2

    def test_observer_failure_propagates(self):
        # The machine wires on_spill to its trace buffer; a full trace
        # must surface, not be swallowed by the queue.
        def boom(cell, name, words):
            raise RuntimeError("trace full")

        q = CommandQueue("t")
        q.on_spill = boom
        for i in range(8):
            q.push(i)
        with pytest.raises(RuntimeError):
            q.push(8)
