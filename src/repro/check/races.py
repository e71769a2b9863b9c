"""One-sided data-race detection over sanitized traces.

Every annotated PUT/GET contributes *accesses*: byte footprints touched
on some cell's memory, each with an **issue** row and **completion**
rows.  Two accesses to overlapping bytes on the same cell, at least one
a write, race unless one *completes* before the other *issues* in the
happens-before order — the AP1000+ memory model, where a PUT is
globally visible only once a covering flag wait (or an acknowledge on
the same T-net channel) has returned.  Completion rules:

* **PUT remote write**, **GET remote read / local write** — the wait
  covering the transfer's receive-flag increment (a GET's reply cannot
  land before its remote read); or, by the per-(source, destination)
  T-net FIFO, the completion of any *later* transfer on the same
  channel (the acknowledge idiom: an acked or flagged successor proves
  every predecessor arrived, a byte-less one too).
* **PUT local source read** — at issue: the functional machine consumes
  the source synchronously, and modeling the asynchronous send DMA
  would need a send-flag discipline no shipped kernel uses.
* **REMOTE_LOAD / REMOTE_STORE** — at issue: single-word accesses the
  MSC+ generates and retires synchronously (section 4.2).

Accesses on one channel never race each other: the T-net delivers in
order per (source, destination) pair.

The pass is array operations over :attr:`HBResult.block`: inherited
completions a reversed minimum per (channel, waiting cell) lane,
candidate pairs index ranges of the (home, lo) order, the exact chunk
intersection last.  The object pass it replaced is the oracle
``tests/check/reference_races.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from repro.core.errors import SimulationError
from repro.hardware.memory import PHYSICAL_SPACE_BYTES
from repro.trace.events import EventKind
from repro.check.diagnostics import CheckReport, Diagnostic, EventRef
from repro.check.hb import HBResult

_PUT, _GET = int(EventKind.PUT), int(EventKind.GET)
_STORE, _LOAD = int(EventKind.REMOTE_STORE), int(EventKind.REMOTE_LOAD)
_VERBS = ("write and read the same bytes", "both write")
_BATCH = 1 << 20    # chunks per array pass of chunks_meet: bounds memory


def _ranges(start: np.ndarray, count: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``[start[k], start[k] + count[k])`` concatenated: each
    element's ``k`` and value."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + np.repeat(
        start - np.cumsum(count) + count, count)


def chunks_meet(a: Sequence[ArrayLike], b: Sequence[ArrayLike]) -> np.ndarray:
    """Whether footprints ``a`` and ``b`` share a byte, per position.

    Each is ``(base, chunk, count, step)`` ints or arrays: ``count``
    chunks of ``chunk`` bytes, chunk i at ``base + i * step`` (``step``
    at least ``chunk`` when ``count > 1``).  Span overlap is necessary
    but not sufficient: interleaved strided columns are disjoint.  Each
    chunk of the footprint with fewer is tested against the other's, a
    contiguous footprint being one chunk."""
    fp = np.array(np.broadcast_arrays(*a, *b), np.int64).reshape(2, 4, -1)
    flat = (fp[:, 2] > 1) & (fp[:, 3] == fp[:, 1])
    fp[:, 1] *= np.where(flat, fp[:, 2], 1)
    fp[:, 2][flat] = 1
    swap = fp[0, 2] > fp[1, 2]
    fp[:, :, swap] = fp[::-1, :, swap]
    (base, chunk, count, step), (other, width, many, skip) = fp
    skip = np.where(many > 1, skip, 1)
    ends = np.r_[0, np.cumsum(np.where((chunk > 0) & (width > 0), count, 0))]
    hit = np.zeros(len(count), bool)
    for start in range(0, int(ends[-1]), _BATCH):
        # Chunk k of the other meets chunk [lo, lo + chunk) iff k0 <= k <=
        # k1: other + k*skip < lo + chunk and other + k*skip + width > lo.
        at = np.arange(start, min(start + _BATCH, int(ends[-1])))
        pair = np.searchsorted(ends, at, "right") - 1
        lo = base[pair] + (at - ends[pair]) * step[pair]
        k0 = -((other[pair] + width[pair] - lo - 1) // skip[pair])
        k1 = (lo + chunk[pair] - other[pair] - 1) // skip[pair]
        hit[pair[np.maximum(k0, 0) <= np.minimum(k1, many[pair] - 1)]] = True
    return hit


@dataclass
class Accesses:
    """A trace's accesses, one array per field, sorted by (home, lo,
    seq, row, remote side first); ``fp`` holds base, chunk, count, step.
    Access k's completion rows are ``done[done_at[k]:done_at[k + 1]]``:
    its own row when it completes at issue, else the earliest covering
    wait per waiting cell."""

    row: np.ndarray
    home: np.ndarray
    fp: np.ndarray
    write: np.ndarray
    channel: np.ndarray     # -1: completes at issue
    done_at: np.ndarray
    done: np.ndarray


def extract_accesses(hb: HBResult) -> Accesses:
    """All memory accesses of the trace, with completions assigned."""
    block, n = hb.block, hb.num_pes
    # An unsanitized trace has no range columns, and no accesses.
    rows = np.flatnonzero(np.isin(block["kind"], (_PUT, _GET, _STORE, _LOAD))
                          & ("raddr" in block))
    kind, pe, partner = (block[name][rows].astype(np.int64)
                         for name in ("kind", "pe", "partner"))
    data = (kind == _PUT) | (kind == _GET)
    # Every row's remote side, then each PUT/GET's local side.
    row, home = np.r_[rows, rows[data]], np.r_[partner, pe[data]]
    local = np.arange(len(row)) >= len(rows)
    fp = np.array([np.r_[block.get("r" + name, pe)[rows],
                         block.get("l" + name, pe)[rows[data]]]
                   for name in ("addr", "chunk", "count", "step")], np.int64)
    addr, chunk, count, step = fp
    # Refuse what the sanitizer never writes; then no int64 sum wraps.
    end = addr + step * np.maximum(count - 1, 0.0) + chunk
    far = np.r_[partner, partner[data]]
    bad = np.flatnonzero((addr >= 0) & (
        (chunk < 0) | (count < 0) | ((count > 1) & (step < chunk))
        | (end > PHYSICAL_SPACE_BYTES) | (far < 0) | (far >= n)))
    if len(bad):
        side, at = int(bad[0]), int(row[bad[0]])
        raise SimulationError(
            f"cell {block['pe'][at]}'s {EventKind(block['kind'][at]).name} "
            f"(seq {block['seq'][at]}) to cell {far[side]} has a malformed "
            f"{'local' if local[side] else 'remote'} footprint (base, "
            f"chunk, count, step) = {tuple(fp[:, side].tolist())}")
    # Channel ("fwd", p, q) is p*n + q; ("rep", p, q) is n*n more.
    channel = np.r_[np.where(data, pe * n + partner, -1), np.where(
        kind[data] == _GET, (n + pe[data]) * n + partner[data], -1)]
    write = np.r_[(kind == _PUT) | (kind == _STORE), kind[data] == _GET]
    seq = block["seq"][row].astype(np.int64)
    present = (addr >= 0) & (count > 0) & (chunk > 0)

    # FIFO inheritance.  A channel's members in issue order are its
    # remote sides, with bytes or not, and its local sides with bytes;
    # each is proven delivered by its own or any later member's covering
    # wait.  Per (channel, waiting cell) lane, the earliest of those is
    # a reversed running minimum (lanes offset apart never mix).
    members = np.flatnonzero((channel >= 0) & (present | ~local))
    members = members[np.lexsort((seq[members], channel[members]))]
    on = channel[members]
    cover = hb.recv_cover[row[members]]
    waiter = np.where(cover >= 0, block["pe"][cover], -1)
    lanes = np.unique(on[waiter >= 0] * n + waiter[waiter >= 0])
    first = np.searchsorted(on, lanes // n)
    lane, at = _ranges(first, np.searchsorted(on, lanes // n, "right")
                       - first)
    none = len(block["kind"])
    shift = lane * (none + 1)
    earliest = np.minimum.accumulate((np.where(
        waiter[at] == lanes[lane] % n, cover[at], none) + shift)[::-1]
    )[::-1] - shift

    acc = np.flatnonzero(present)
    acc = acc[np.lexsort((local[acc], row[acc], seq[acc], addr[acc],
                          home[acc]))]
    index = np.full(len(row), -1)
    index[acc] = np.arange(len(acc))
    sync = np.flatnonzero(channel[acc] < 0)
    owner = index[members[at]]
    waits = (earliest < none) & (owner >= 0)
    who = np.r_[sync, owner[waits]]
    order = np.argsort(who, kind="stable")
    return Accesses(
        row=row[acc], home=home[acc], fp=fp[:, acc], write=write[acc],
        channel=channel[acc],
        done_at=np.searchsorted(who[order], np.arange(len(acc) + 1)),
        done=np.r_[row[acc][sync], earliest[waits]][order])


def _completes_before(hb: HBResult, acc: Accesses, a: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Whether each access of ``a`` completes before the one of ``b``
    at its position issues (so they cannot race)."""
    pair, at = _ranges(acc.done_at[a], acc.done_at[a + 1] - acc.done_at[a])
    return np.bincount(pair[hb.precedes(acc.done[at], acc.row[b[pair]])],
                       minlength=len(a)) > 0


def find_races(hb: HBResult, acc: Accesses) -> list[Diagnostic]:
    """Report every unordered conflicting pair, one diagnostic each."""
    base, chunk, count, step = acc.fp
    hi = base + step * (count - 1) + chunk
    # Span sweep: access j follows k in (home, lo) order and starts
    # before k ends; the cheap tests go first, chunk arithmetic last.
    span = int(hi.max(initial=0)) + 1
    k = np.arange(len(acc.row))
    k, j = _ranges(k + 1, np.searchsorted(acc.home * span + base,
                                          acc.home * span + hi) - k - 1)
    keep = ((acc.row[k] != acc.row[j]) & (acc.write[k] | acc.write[j])
            & ((acc.channel[k] < 0) | (acc.channel[k] != acc.channel[j])))
    k, j = k[keep], j[keep]
    keep = ~(_completes_before(hb, acc, k, j)
             | _completes_before(hb, acc, j, k))
    k, j = k[keep], j[keep]
    keep = chunks_meet(acc.fp[:, k], acc.fp[:, j])
    k, j = k[keep], j[keep]
    block = hb.block
    seq = block["seq"][acc.row]
    x = np.where(seq[k] <= seq[j], k, j)    # the earlier of each pair
    lo, top = np.maximum(base[k], base[j]), np.minimum(hi[k], hi[j])
    diagnostics = []
    for pair, home, lo_, hi_ in zip(np.c_[x, k + j - x].tolist(),
                                    acc.home[k].tolist(), lo.tolist(),
                                    top.tolist()):
        refs = [EventRef(int(block["pe"][acc.row[a]]), int(seq[a]),
                         EventKind(int(block["kind"][acc.row[a]])).name)
                for a in pair]
        writes = acc.write[pair].tolist()
        both = all(writes)
        text = [f"cell {ref.pe}'s {ref.kind} (seq {ref.seq}, remote "
                f"{'write' if w else 'read'})" for ref, w in zip(refs, writes)]
        diagnostics.append(Diagnostic(
            code="RACE-PUT-PUT" if both else "RACE-PUT-GET",
            message=(f"{text[0]} and {text[1]} {_VERBS[both]} on cell "
                     f"{home} with no ordering between them"),
            events=tuple(refs), home=home, addr_lo=lo_, addr_hi=hi_))
    return diagnostics


def race_report(hb: HBResult, subject: str) -> CheckReport:
    """Run race detection; diagnostics land in a fresh report."""
    report = CheckReport(subject=subject)
    accesses = extract_accesses(hb)
    report.stats["accesses"] = len(accesses.row)
    report.stats["annotated_events"] = int(np.count_nonzero(
        np.diff(np.sort(accesses.row), prepend=-1)))
    report.extend(find_races(hb, accesses))
    return report
