"""The cell's write-through processor cache.

Each cell's SuperSPARC has a 36-kilobyte write-through cache (Table 1).
Two properties of that cache matter to the PUT/GET architecture:

* Because the cache is *write-through*, memory always holds current data,
  so the MSC+ can DMA outgoing data straight from DRAM without asking the
  processor to post (flush) dirty lines — on the original AP1000 the
  software handler paid ``put_msg_post_time`` per byte for this.
* On message *reception* the MSC+ invalidates the cached copies of the
  written range in hardware, "at the time of message reception", so
  reception never interrupts the user program; the AP1000 again paid a
  per-byte software cost (``recv_msg_flush_time``).

The model is a direct-mapped tag store.  Functional data always lives in
DRAM (write-through means the cache never holds the only copy), so the
cache tracks *presence* only, which is exactly what invalidation needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.state import Stateful

CACHE_BYTES = 36 * 1024
LINE_BYTES = 32


@dataclass
class WriteThroughCache(Stateful):
    """Direct-mapped, write-through, write-no-allocate cache model."""

    size_bytes: int = CACHE_BYTES
    line_bytes: int = LINE_BYTES
    _tags: dict[int, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    write_throughs: int = 0
    invalidated_lines: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ConfigurationError("cache and line sizes must be positive")
        if self.size_bytes % self.line_bytes:
            raise ConfigurationError(
                "cache size must be a multiple of line size")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def _index_tag(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_lines, line

    def read(self, addr: int, size: int = 1) -> int:
        """Touch a read range; returns the number of missing lines loaded."""
        loaded = 0
        for line in self._lines(addr, size):
            index = line % self.num_lines
            if self._tags.get(index) == line:
                self.hits += 1
            else:
                self.misses += 1
                self._tags[index] = line
                loaded += 1
        return loaded

    def write(self, addr: int, size: int = 1) -> None:
        """Touch a write range: write-through (no allocate on miss)."""
        for line in self._lines(addr, size):
            index = line % self.num_lines
            if self._tags.get(index) == line:
                self.hits += 1
            else:
                self.misses += 1
        self.write_throughs += 1

    def invalidate_range(self, addr: int, size: int) -> int:
        """Invalidate every cached line overlapping [addr, addr+size).

        Returns the number of lines actually dropped.  With nothing
        resident there is nothing to drop; a range at least as large as
        the cache clears the whole tag store in one step; a smaller one
        walks its own lines or the resident tags, whichever are fewer,
        keeping invalidation O(min(range, resident lines)).
        """
        tags = self._tags
        if size <= 0 or not tags:
            return 0
        dropped = 0
        if size >= self.size_bytes:
            dropped = len(tags)
            tags.clear()
        else:
            lines = self._lines(addr, size)
            if len(lines) <= len(tags):
                for line in lines:
                    index = line % self.num_lines
                    if tags.get(index) == line:
                        del tags[index]
                        dropped += 1
            else:
                stale = [index for index, line in tags.items()
                         if line in lines]
                for index in stale:
                    del tags[index]
                dropped = len(stale)
        self.invalidated_lines += dropped
        return dropped

    def invalidate_items(self, addrs: np.ndarray, size: int) -> int:
        """:meth:`invalidate_range` of ``size`` bytes at each of
        ``addrs``, in one step: a resident line goes when any of the
        ranges covers it, which is what the calls in turn drop."""
        tags = self._tags
        if size <= 0 or not tags or not len(addrs):
            return 0
        if size >= self.size_bytes:
            return self.invalidate_range(int(addrs[0]), size)
        first = addrs // self.line_bytes
        last = (addrs + size - 1) // self.line_bytes
        lines = np.fromiter(tags.values(), np.int64, len(tags))[:, None]
        covered = ((first <= lines) & (lines <= last)).any(axis=1)
        stale = [index for index, hit in zip(list(tags), covered.tolist())
                 if hit]
        for index in stale:
            del tags[index]
        self.invalidated_lines += len(stale)
        return len(stale)

    def contains(self, addr: int) -> bool:
        index, line = self._index_tag(addr)
        return self._tags.get(index) == line

    def flush(self) -> None:
        self._tags.clear()

    def _lines(self, addr: int, size: int) -> range:
        first = addr // self.line_bytes
        last = (addr + size - 1) // self.line_bytes
        return range(first, last + 1)
