"""One-sided data-race detection over sanitized traces.

Every annotated PUT/GET contributes *accesses*: byte footprints touched
on some cell's memory, each with an **issue** event and a **completion**
event.  Two accesses to overlapping bytes on the same cell, at least one
a write, race unless one *completes* before the other *issues* in the
happens-before order — the AP1000+ memory model, where a PUT is
globally visible only once a covering flag wait (or an acknowledge on
the same T-net channel) has returned.  Completion rules:

* **PUT remote write**, **GET remote read / local write** — the wait
  covering the transfer's receive-flag increment (a GET's reply cannot
  land before its remote read); or, by the per-(source, destination)
  T-net FIFO, the completion of any *later* transfer on the same
  channel (the acknowledge idiom: an acked or flagged successor proves
  every predecessor arrived).
* **PUT local source read** — at issue: the functional machine consumes
  the source synchronously, and modeling the asynchronous send DMA
  would need a send-flag discipline no shipped kernel uses.
* **REMOTE_LOAD / REMOTE_STORE** — at issue: single-word accesses the
  MSC+ generates and retires synchronously (section 4.2).

Accesses on one channel never race each other: the T-net delivers in
order per (source, destination) pair.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.trace.events import EventKind
from repro.check.diagnostics import CheckReport, Diagnostic, EventRef
from repro.check.hb import EventKey, HBResult

Channel = tuple[str, int, int]


@dataclass(frozen=True)
class Footprint:
    """``count`` chunks of ``chunk`` bytes; chunk i starts at
    ``base + i * step``."""

    base: int
    chunk: int
    count: int
    step: int

    @property
    def lo(self) -> int:
        return self.base

    @property
    def hi(self) -> int:
        if self.count == 0 or self.chunk == 0:
            return self.base
        return self.base + self.step * (self.count - 1) + self.chunk

    def is_empty(self) -> bool:
        return self.count == 0 or self.chunk == 0

    def _hits_interval(self, lo: int, hi: int) -> bool:
        """Does any chunk intersect the byte interval [lo, hi)?"""
        if self.is_empty() or hi <= lo:
            return False
        if self.count == 1 or self.step <= 0:
            return self.base < hi and self.base + self.chunk > lo
        # Chunk i intersects iff  base + i*step < hi  and
        # base + i*step + chunk > lo.
        i_hi = (hi - self.base - 1) // self.step
        i_lo = -((self.base + self.chunk - lo - 1) // self.step)
        return max(i_lo, 0) <= min(i_hi, self.count - 1)

    def overlaps(self, other: "Footprint") -> bool:
        """Precise chunk-level intersection (span overlap is necessary
        but not sufficient: interleaved strided columns are disjoint)."""
        if self.lo >= other.hi or other.lo >= self.hi:
            return False
        a, b = (self, other) if self.count <= other.count else (other, self)
        for i in range(a.count):
            lo = a.base + i * a.step
            if b._hits_interval(lo, lo + a.chunk):
                return True
        return False

    def intersection_span(self, other: "Footprint") -> tuple[int, int]:
        return max(self.lo, other.lo), min(self.hi, other.hi)


@dataclass
class Access:
    """One side of a transfer: bytes touched on ``home``'s memory."""

    key: EventKey
    seq: int
    kind: EventKind
    home: int
    fp: Footprint
    is_write: bool
    #: T-net FIFO this access rides, or None (no ordering channel).
    channel: Channel | None = None
    #: True when the access is complete at its own issue event.
    sync: bool = False
    #: Earliest known completion wait per PE (after FIFO inheritance).
    completions: dict[int, EventKey] = field(default_factory=dict)


_PUT, _GET = int(EventKind.PUT), int(EventKind.GET)
_STORE, _LOAD = int(EventKind.REMOTE_STORE), int(EventKind.REMOTE_LOAD)
_SIDES = ("raddr", "rchunk", "rcount", "rstep",
          "laddr", "lchunk", "lcount", "lstep")
_VERBS = ("write and read the same bytes", "both write")


def extract_accesses(hb: HBResult) -> list[Access]:
    """All memory accesses of the trace, with completions assigned."""
    block = hb.block
    if "raddr" not in block:
        return []
    rows = np.flatnonzero(np.isin(block["kind"], (_PUT, _GET, _STORE, _LOAD)))
    pe = block["pe"][rows].astype(np.int64)
    # A PUT/GET's own completion: the wait covering its receive-flag
    # increment, by (cell, index).
    cover = hb.recv_cover[rows]
    waiter = np.where(cover >= 0, block["pe"][cover], -1)
    columns = [block["kind"][rows], pe, rows - hb.starts[pe],
               block["seq"][rows], block["partner"][rows], waiter,
               cover - hb.starts[waiter], *(block[name][rows]
                                           for name in _SIDES)]
    accesses: list[Access] = []
    # Channel members in issue order: (seq, access-or-None, completions)
    # — a transfer without bytes (the acknowledge idiom) still proves,
    # once complete, delivery of everything earlier on its channel.
    channels: dict[Channel, list[tuple[int, Access | None,
                                       dict[int, EventKey]]]] = {}
    for (k, p, i, seq, partner, wpe, wi, raddr, rchunk, rcount, rstep,
         laddr, lchunk, lcount, lstep) in zip(*(column.tolist()
                                                for column in columns)):
        remote = (Footprint(raddr, rchunk, rcount, rstep)
                  if raddr >= 0 and rcount and rchunk else None)
        local = (Footprint(laddr, lchunk, lcount, lstep)
                 if laddr >= 0 and lcount and lchunk else None)
        fwd: Channel = ("fwd", p, partner)
        if k == _PUT:       # (home, footprint, is_write, channel)
            sides = ((partner, remote, True, fwd), (p, local, False, None))
        elif k == _GET:
            sides = ((partner, remote, False, fwd),
                     (p, local, True, ("rep", p, partner)))
        else:               # no channel: complete at issue
            sides = ((partner, remote, k == _STORE, None),)
        comp: dict[int, EventKey] = {} if wpe < 0 else {wpe: (wpe, wi)}
        for home, fp, write, channel in sides:
            acc = None
            if fp is not None:
                acc = Access(key=(p, i), seq=seq, kind=EventKind(k),
                             home=home, fp=fp, is_write=write,
                             channel=channel, sync=channel is None,
                             completions={} if channel is None
                             else dict(comp))
                accesses.append(acc)
            if channel is not None and (acc is not None or channel is fwd):
                channels.setdefault(channel, []).append((seq, acc, comp))
    # FIFO inheritance: walking each channel backward, every element is
    # proven delivered by any later element's completion — keep the
    # earliest known wait per PE.
    for members in channels.values():
        members.sort(key=lambda m: m[0])
        best: dict[int, EventKey] = {}
        for _seq, acc, comp in reversed(members):
            for wpe, wkey in comp.items():
                cur = best.get(wpe)
                if cur is None or wkey[1] < cur[1]:
                    best[wpe] = wkey
            if acc is not None:
                for wpe, wkey in best.items():
                    cur = acc.completions.get(wpe)
                    if cur is None or wkey[1] < cur[1]:
                        acc.completions[wpe] = wkey
    return accesses


def _completes_before(hb: HBResult, a: Access, b: Access) -> bool:
    """Does ``a`` complete before ``b`` issues (so they cannot race)?"""
    waits = [a.key] if a.sync else a.completions.values()
    return any(hb.happens_before(wkey, b.key) for wkey in waits)


def find_races(hb: HBResult, accesses: list[Access]) -> list[Diagnostic]:
    """Report every unordered conflicting pair, one diagnostic each."""
    diagnostics: list[Diagnostic] = []
    by_home: dict[int, list[Access]] = {}
    for acc in accesses:
        by_home.setdefault(acc.home, []).append(acc)
    for home in sorted(by_home):
        group = sorted(by_home[home], key=lambda a: (a.fp.lo, a.seq))
        # Span sweep: only accesses whose spans overlap can conflict.
        active: list[tuple[int, int]] = []   # heap of (span_hi, index)
        for j, acc in enumerate(group):
            while active and active[0][0] <= acc.fp.lo:
                heapq.heappop(active)
            for _hi, k in active:
                other = group[k]
                if (other.key == acc.key    # two sides of one event
                        or not (acc.is_write or other.is_write)
                        or (acc.channel is not None
                            and acc.channel == other.channel)
                        or _completes_before(hb, acc, other)
                        or _completes_before(hb, other, acc)
                        or not acc.fp.overlaps(other.fp)):
                    continue
                pair = sorted((other, acc), key=lambda a: a.seq)
                lo, hi = acc.fp.intersection_span(other.fp)
                both = acc.is_write and other.is_write
                diagnostics.append(Diagnostic(
                    code="RACE-PUT-PUT" if both else "RACE-PUT-GET",
                    message=(f"{_describe(pair[0])} and {_describe(pair[1])} "
                             f"{_VERBS[both]} on cell {home} with no "
                             f"ordering between them"),
                    events=tuple(EventRef(a.key[0], a.seq, a.kind.name)
                                 for a in pair),
                    home=home, addr_lo=lo, addr_hi=hi,
                ))
            heapq.heappush(active, (acc.fp.hi, j))
    return diagnostics


def _describe(acc: Access) -> str:
    side = "write" if acc.is_write else "read"
    return (f"cell {acc.key[0]}'s {acc.kind.name} (seq {acc.seq}, "
            f"remote {side})")


def race_report(hb: HBResult, subject: str) -> CheckReport:
    """Run race detection; diagnostics land in a fresh report."""
    report = CheckReport(subject=subject)
    accesses = extract_accesses(hb)
    report.stats["accesses"] = len(accesses)
    report.stats["annotated_events"] = len({a.key for a in accesses})
    report.extend(find_races(hb, accesses))
    return report
