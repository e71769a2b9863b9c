"""SegmentPool lifecycle and the SPSC ShmRing protocol."""

from __future__ import annotations

import os
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.machine import shardmem
from repro.machine.shardmem import (
    SegmentPool,
    ShmRing,
    live_segment_names,
)


def make_ring(capacity: int) -> ShmRing:
    buf = memoryview(bytearray(16 + capacity))
    return ShmRing(buf, capacity)


class TestShmRing:
    def test_fifo_roundtrip(self):
        ring = make_ring(256)
        for i in range(5):
            assert ring.try_push(b"rec%d" % i)
        assert [ring.pop() for _ in range(5)] == \
            [b"rec%d" % i for i in range(5)]
        assert ring.pop() is None

    def test_len_counts_bytes_in_flight(self):
        ring = make_ring(64)
        assert len(ring) == 0
        ring.try_push(b"abcd")
        assert len(ring) == 4 + 4  # length prefix + record
        ring.pop()
        assert len(ring) == 0

    def test_wraparound_preserves_records(self):
        # Capacity chosen so records straddle the wrap point often.
        ring = make_ring(37)
        for i in range(200):
            record = bytes([i % 251]) * (i % 11 + 1)
            assert ring.try_push(record)
            assert ring.pop() == record

    def test_full_ring_rejects_push(self):
        ring = make_ring(32)
        assert ring.try_push(b"x" * 28)  # 4 + 28 == capacity
        assert not ring.try_push(b"y")
        ring.pop()
        assert ring.try_push(b"y")

    def test_oversized_record_raises(self):
        ring = make_ring(16)
        with pytest.raises(ValueError, match="exceeds ring capacity"):
            ring.try_push(b"z" * 16)

    def test_window_too_small_raises(self):
        with pytest.raises(ValueError, match="smaller than header"):
            ShmRing(memoryview(bytearray(16)), 8)

    def test_counters_are_monotonic_not_wrapped(self):
        ring = make_ring(24)
        for _ in range(50):  # total bytes pushed far exceed capacity
            assert ring.try_push(b"0123")
            assert ring.pop() == b"0123"
        assert ring._head == ring._tail == 50 * 8


    def test_close_lets_the_segment_under_it_close(self):
        segment = shared_memory.SharedMemory(create=True, size=16 + 64)
        try:
            ring = ShmRing(segment.buf[:16 + 64], 64)
            assert ring.try_push(b"abc") and ring.pop() == b"abc"
            ring.close()
            segment.close()       # BufferError while a view is exported
        finally:
            segment.unlink()

    def test_two_process_stress_never_sees_a_torn_counter(self):
        # Before head and tail were single 8-byte loads and stores this
        # failed within 1 000 - 200 000 records (a consumer reading the
        # tail while ``struct.pack_into`` had zero-filled it).
        root = Path(__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "ring_stress.py"),
             "--records", "250000"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ok: 250000 records")


class TestSegmentPool:
    def test_create_registers_and_release_unlinks(self):
        with SegmentPool() as pool:
            seg = pool.create(4096)
            assert seg.name.lstrip("/") in {
                n.lstrip("/") for n in live_segment_names()}
            assert os.path.exists(f"/dev/shm/{seg.name.lstrip('/')}")
        assert live_segment_names() == []
        assert not os.path.exists(f"/dev/shm/{seg.name.lstrip('/')}")

    def test_release_is_idempotent(self):
        pool = SegmentPool()
        with pool:
            pool.create(1024)
        pool.release()  # second release: no raise
        assert live_segment_names() == []

    def test_mappings_stay_readable_after_release(self):
        # The parent keeps numpy views into cell segments after the
        # run; release() unlinks the name but keeps the mapping.
        with SegmentPool() as pool:
            seg = pool.create(1024)
            seg.buf[0] = 42
        assert seg.buf[0] == 42

    def test_sweep_is_safe_with_nothing_live(self):
        shardmem._sweep()
        assert live_segment_names() == []
