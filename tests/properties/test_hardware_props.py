"""Property-based tests on the hardware models."""

from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.cache import WriteThroughCache
from repro.hardware.mmu import MMU, PAGE_4K
from repro.hardware.queues import CommandQueue
from repro.hardware.wtpage import WT_PAGE_BYTES, WriteThroughPageTable
from repro.machine.ringbuffer import RingBuffer
from repro.network.packet import Packet, PacketKind


# ----------------------------------------------------------------------
# Command queues: FIFO under arbitrary push/pop interleavings
# ----------------------------------------------------------------------

@given(ops=st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(1, 12)),
    st.tuples(st.just("pop"), st.just(0)),
), max_size=200))
def test_queue_is_fifo_under_any_interleaving(ops):
    queue = CommandQueue("prop", spill_buffer_words=64)
    model: list[int] = []
    counter = 0
    for op, words in ops:
        if op == "push":
            queue.push(counter, words=words)
            model.append(counter)
            counter += 1
        elif model:
            assert queue.pop() == model.pop(0)
    assert [queue.pop() for _ in range(len(model))] == model
    assert not queue


@given(n=st.integers(1, 300))
def test_queue_conserves_commands(n):
    queue = CommandQueue("prop")
    for i in range(n):
        queue.push(i)
    assert queue.pushed == n
    assert len(queue) == n
    out = [queue.pop() for _ in range(n)]
    assert out == list(range(n))
    assert queue.popped == n


@given(capacity=st.integers(12, 64),      # a command fits the queue RAM
       ops=st.lists(st.one_of(st.integers(1, 12), st.none()), max_size=80))
def test_queue_depth_and_high_water_mark(capacity, ops):
    """``pushed - popped`` is the depth the MSC+ pump reads in place of
    ``bool(queue)``, and the high-water mark is the running ``max`` of
    the words held, through spills and refills."""
    queue = CommandQueue("depth", capacity_words=capacity,
                         spill_buffer_words=48)
    high_water = 0
    for op in ops:
        if op is None:
            if queue:
                queue.pop()
        else:
            queue.push(object(), op)
            high_water = max(high_water,
                             queue.words_in_queue + queue.words_spilled)
        assert queue.pushed - queue.popped == len(queue)
        assert (queue.pushed != queue.popped) == bool(queue)
        assert queue.high_water_words == high_water


# ----------------------------------------------------------------------
# Cache: invalidation after writes means memory and cache never disagree
# ----------------------------------------------------------------------

@given(accesses=st.lists(st.tuples(
    st.sampled_from(["read", "write", "invalidate"]),
    st.integers(0, 4000), st.integers(1, 200)), max_size=150))
def test_cache_tracks_only_read_lines(accesses):
    cache = WriteThroughCache(size_bytes=1024, line_bytes=32)
    resident: dict[int, int] = {}
    for op, addr, size in accesses:
        first, last = addr // 32, (addr + size - 1) // 32
        if op == "read":
            cache.read(addr, size)
            for line in range(first, last + 1):
                resident[line % 32] = line
        elif op == "write":
            cache.write(addr, size)   # write-through, no allocate
        else:
            cache.invalidate_range(addr, size)
            for line in range(first, last + 1):
                if resident.get(line % 32) == line:
                    del resident[line % 32]
    for line in resident.values():
        assert cache.contains(line * 32)


# ----------------------------------------------------------------------
# MMU: translation is consistent with the installed mapping
# ----------------------------------------------------------------------

@given(pages=st.dictionaries(st.integers(0, 63), st.integers(0, 63),
                             max_size=32),
       probes=st.lists(st.integers(0, 64 * PAGE_4K - 1), max_size=60))
def test_mmu_translation_matches_page_table(pages, probes):
    mmu = MMU()
    for lpage, ppage in pages.items():
        mmu.map_page(lpage * PAGE_4K, ppage * PAGE_4K)
    for addr in probes:
        lpage = addr // PAGE_4K
        if lpage in pages:
            assert mmu.translate(addr) == \
                pages[lpage] * PAGE_4K + addr % PAGE_4K
        else:
            from repro.core.errors import PageFaultError
            import pytest
            with pytest.raises(PageFaultError):
                mmu.translate(addr)


# ----------------------------------------------------------------------
# Ring buffer: conservation and filter correctness
# ----------------------------------------------------------------------

@given(messages=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                                   st.integers(0, 64)), max_size=80),
       filter_src=st.integers(0, 3))
def test_ring_buffer_conserves_and_filters(messages, filter_src):
    ring = RingBuffer(capacity_bytes=256)
    for src, context, size in messages:
        ring.deposit(Packet(kind=PacketKind.SEND, src=src, dst=9,
                            payload_bytes=size, data=bytes(size),
                            context=context))
    matching = [m for m in messages if m[0] == filter_src]
    got = []
    while True:
        packet = ring.receive(src=filter_src)
        if packet is None:
            break
        got.append(packet)
    assert len(got) == len(matching)
    assert [g.payload_bytes for g in got] == [m[2] for m in matching]
    assert len(ring) == len(messages) - len(matching)


# ----------------------------------------------------------------------
# Write-through page table: address translation is exact within bindings
# ----------------------------------------------------------------------

@given(bindings=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 15)),
                        max_size=12),
       probes=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 15),
                                 st.integers(0, WT_PAGE_BYTES - 1)),
                       max_size=40))
def test_wt_page_translation(bindings, probes):
    table = WriteThroughPageTable()
    local = {}
    for i, (cell, page) in enumerate(sorted(bindings)):
        base = (i + 1) * WT_PAGE_BYTES * 2
        table.bind(cell, page * WT_PAGE_BYTES, base)
        local[(cell, page)] = base
    for cell, page, offset in probes:
        addr = page * WT_PAGE_BYTES + offset
        translated = table.local_address(cell, addr)
        if (cell, page) in local:
            assert translated == local[(cell, page)] + offset
        else:
            assert translated is None
