"""Shared-memory backing for the sharded engine (:mod:`sharded`).

Two pieces live here, both thin wrappers over POSIX shared memory:

* :class:`SegmentPool` — owns every ``multiprocessing.shared_memory``
  segment a sharded run creates (cell DRAM blocks and the mailbox
  segment) and guarantees they are unlinked exactly once, on every exit
  path: the normal ``release()`` at end of run, the context-manager
  ``__exit__`` on exceptions, an ``atexit`` backstop, and a chained
  SIGTERM handler installed for the duration of the run.  Orphaned
  ``/dev/shm`` files are the classic failure mode of shared-memory
  programs; the pool makes "kill the run at any point" leak-free.

* :class:`ShmRing` — a single-producer single-consumer byte ring laid
  out in a shared segment, the cross-shard mailbox.  It is the
  process-level twin of the AP1000+ ring buffer MSC+ SENDs land in
  (:mod:`repro.machine.ringbuffer`): the producer deposits length-
  prefixed records and publishes a monotonic tail counter; the consumer
  drains up to the published tail and republishes its head.  Each
  counter is read and written as one aligned 8-byte load or store, and
  on a total-store-order machine the data write happens-before the tail
  publish, which is the only ordering the protocol needs; there are no
  locks, and a full ring is handled by the *caller* draining its own
  inbound rings while retrying (deadlock-free back-pressure, see
  docs/sharding.md).
"""

from __future__ import annotations

import atexit
import os
import signal
import struct
from multiprocessing import shared_memory

#: Default mailbox ring capacity per ordered shard pair.
DEFAULT_RING_BYTES = 1 << 20

#: Ring header: two u64 monotonic byte counters (head, tail).
_HEADER_BYTES = 16
_LENGTH = struct.Struct("<I")

#: Live segments of this process, by name.  Module-global (not
#: per-pool) so the atexit/SIGTERM backstops can sweep everything even
#: if several pools exist.
_LIVE: dict[str, shared_memory.SharedMemory] = {}
#: PID that created the segments; forked children inherit the module
#: state but must never unlink their parent's segments.
_OWNER_PID: int | None = None
_ATEXIT_INSTALLED = False


def _sweep() -> None:
    """Unlink every live segment (idempotent, owner process only)."""
    if _OWNER_PID is not None and os.getpid() != _OWNER_PID:
        return
    for name in list(_LIVE):
        seg = _LIVE.pop(name)
        try:
            seg.unlink()
        except FileNotFoundError:  # already unlinked
            pass


def live_segment_names() -> list[str]:
    """Names of segments not yet unlinked (for leak tests)."""
    return sorted(_LIVE)


class _Segment(shared_memory.SharedMemory):
    """A shared-memory segment tolerant of outliving its unlink.

    The parent keeps numpy views into cell segments after a run (memory
    digests, result arrays), so when the segment object is collected its
    buffer still has exported pointers and the stock ``close()`` raises
    ``BufferError``.  Degrade gracefully: drop the file descriptor and
    let the mapping die with the last view.
    """

    def __del__(self) -> None:
        try:
            self.close()
        except BufferError:
            fd = getattr(self, "_fd", -1)
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
                self._fd = -1


class SegmentPool:
    """Context-managed registry of shared-memory segments.

    ``create()`` allocates a zero-filled segment and registers it for
    cleanup.  ``release()`` unlinks every segment but keeps the local
    mappings alive (the parent keeps reading results and memory digests
    out of numpy views over the segments after the workers exit; an
    unlinked mapping stays valid until the views are garbage) —
    ``close_mappings=True`` additionally invalidates them.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._prev_sigterm: object = None
        self._hooked = False

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "SegmentPool":
        global _OWNER_PID, _ATEXIT_INSTALLED
        _OWNER_PID = os.getpid()
        if not _ATEXIT_INSTALLED:
            atexit.register(_sweep)
            _ATEXIT_INSTALLED = True
        self._install_sigterm()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def create(self, size: int) -> shared_memory.SharedMemory:
        seg = _Segment(create=True, size=size)
        self._segments.append(seg)
        _LIVE[seg.name] = seg
        return seg

    def release(self, *, close_mappings: bool = False) -> None:
        """Unlink all segments and restore the SIGTERM handler."""
        self._restore_sigterm()
        for seg in self._segments:
            _LIVE.pop(seg.name, None)
            if close_mappings:
                try:
                    seg.close()
                except BufferError:  # live numpy views; leave mapped
                    pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        self._segments = []

    # -- SIGTERM chaining ----------------------------------------------

    def _install_sigterm(self) -> None:
        """Unlink segments on SIGTERM, then hand off to the previous
        handler (or the default action) so the process still dies."""
        try:
            self._prev_sigterm = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, self._on_sigterm)
            self._hooked = True
        except ValueError:  # not the main thread; atexit still covers
            self._hooked = False

    def _restore_sigterm(self) -> None:
        if self._hooked:
            try:
                signal.signal(signal.SIGTERM, self._prev_sigterm)
            except (ValueError, TypeError):
                pass
            self._hooked = False

    def _on_sigterm(self, signum: int, frame: object) -> None:
        _sweep()
        prev = self._prev_sigterm
        if callable(prev):
            prev(signum, frame)
            return
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)


class ShmRing:
    """SPSC length-prefixed byte ring over a shared-memory window.

    ``buf`` is a writable memoryview of ``16 + capacity`` bytes: the
    head/tail counters followed by the circular data area.  Head and
    tail are *monotonic* byte counts (never wrapped), so "full" is
    simply ``tail - head == capacity`` and no sentinel byte is needed.

    The other process reads a counter while this one writes it, so each
    access must be a single load or store: the counters go through a
    ``"Q"`` cast of the header (one aligned 8-byte access when the
    window starts on an 8-byte boundary).  ``struct.pack_into`` is not
    that — it zero-fills the destination before packing, and a consumer
    that catches ``tail == 0`` on an empty ring parses stale bytes as a
    record.
    """

    def __init__(self, buf: memoryview, capacity: int) -> None:
        if len(buf) < _HEADER_BYTES + capacity:
            raise ValueError("ring window smaller than header + capacity")
        self._counters = buf[:_HEADER_BYTES].cast("Q")   # [head, tail]
        self._data = buf[_HEADER_BYTES:_HEADER_BYTES + capacity]
        self.capacity = capacity

    def close(self) -> None:
        """Drop the views into the window, so that the segment under it
        can be closed without ``BufferError``."""
        self._counters.release()
        self._data.release()

    # -- counters ------------------------------------------------------

    @property
    def _head(self) -> int:
        return self._counters[0]

    @_head.setter
    def _head(self, value: int) -> None:
        self._counters[0] = value

    @property
    def _tail(self) -> int:
        return self._counters[1]

    @_tail.setter
    def _tail(self, value: int) -> None:
        self._counters[1] = value

    def __len__(self) -> int:
        return self._tail - self._head

    # -- circular byte copies ------------------------------------------

    def _write_at(self, pos: int, data: bytes) -> None:
        off = pos % self.capacity
        first = min(len(data), self.capacity - off)
        self._data[off:off + first] = data[:first]
        if first < len(data):
            self._data[:len(data) - first] = data[first:]

    def _read_at(self, pos: int, size: int) -> bytes:
        off = pos % self.capacity
        first = min(size, self.capacity - off)
        out = bytes(self._data[off:off + first])
        if first < size:
            out += bytes(self._data[:size - first])
        return out

    # -- producer / consumer -------------------------------------------

    def try_push(self, record: bytes) -> bool:
        """Deposit one record; False when the ring lacks space.

        The record bytes are written *before* the tail counter is
        published, and the publish is a single 8-byte store, so a
        consumer sees either the old tail or the new one with a
        complete record behind it — never a partly written counter.
        """
        need = _LENGTH.size + len(record)
        if need > self.capacity:
            raise ValueError(
                f"record of {len(record)} bytes exceeds ring capacity "
                f"{self.capacity}")
        tail = self._tail
        if tail - self._head + need > self.capacity:
            return False
        self._write_at(tail, _LENGTH.pack(len(record)))
        self._write_at(tail + _LENGTH.size, record)
        self._tail = tail + need
        return True

    def pop(self) -> bytes | None:
        """Consume the oldest record, or None when the ring is empty."""
        head = self._head
        if self._tail == head:
            return None
        (size,) = _LENGTH.unpack(self._read_at(head, _LENGTH.size))
        record = self._read_at(head + _LENGTH.size, size)
        self._head = head + _LENGTH.size + size
        return record
