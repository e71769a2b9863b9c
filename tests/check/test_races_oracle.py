"""The race detector — accesses as arrays read off the trace's columns —
equals the object pass it replaced, ``reference_races.py``.

Sorted diagnostics and the ``accesses`` / ``annotated_events``
statistics must agree on the seeded-bug fixtures, on the sanitized
bench apps, on generated programs and on generated transfer soups: the
last draw footprints of every shape, byte-less transfers, remote word
accesses, and waits by any cell on any flag, so a channel's transfers
are covered by waits on several cells (and, as a file may, share
``seq`` values).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.grid import workload_specs
from repro.check.diagnostics import Diagnostic
from repro.check.hb import build_happens_before
from repro.check.races import race_report
from repro.check.runner import _load_fixture, buggy_dir, repo_root
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent
from tests.check.reference_races import race_report as reference_report
from tests.programs import MEMORY, programs, round_program
from tests.trace.views import record


def assert_same_races(trace):
    hb = build_happens_before(trace)
    got, want = race_report(hb, "t"), reference_report(hb, "t")
    key = Diagnostic.sort_key
    assert sorted(got.diagnostics, key=key) == \
        sorted(want.diagnostics, key=key)
    assert got.stats == want.stats
    return got


def test_buggy_fixtures():
    fixtures = sorted(p for p in buggy_dir(repo_root()).glob("*.py")
                      if not p.name.startswith("_"))
    assert fixtures
    raced = [assert_same_races(_load_fixture(path).build_trace())
             for path in fixtures]
    assert any(report.diagnostics for report in raced)


@pytest.mark.parametrize("name", [spec.name for spec in workload_specs()])
def test_bench_apps(name):
    [spec] = workload_specs(names=(name,))
    assert_same_races(spec.run(MachineConfig(sanitize=True)).trace)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=programs, cells=st.integers(2, 5))
def test_generated_programs(steps, cells):
    """One ``RACE-PUT-GET`` per cell and ``batch_overlap`` step."""
    machine = Machine(MachineConfig(num_cells=cells, memory_per_cell=MEMORY,
                                    sanitize=True))
    machine.run(lambda ctx: round_program(ctx, steps))
    report = assert_same_races(machine.trace)
    overlaps = sum(op == "batch_overlap" for op, _ in steps)
    assert len(report.diagnostics) == cells * overlaps
    assert report.codes() <= {"RACE-PUT-GET"}


#: (base, chunk, count, step - chunk); a base of -1 is an unstamped side.
_FOOTPRINTS = st.tuples(st.sampled_from([0, 8, 16, 40, -1]),
                        st.sampled_from([8, 4, 16, 0]),
                        st.sampled_from([1, 3, 2, 0]),
                        st.sampled_from([0, 4, 24]))
_TRANSFERS = ("PUT", "GET", "REMOTE_STORE", "REMOTE_LOAD")


@st.composite
def transfer_soups(draw):
    n = draw(st.integers(2, 3))
    buf = TraceBuffer(num_pes=n)
    pe = st.integers(0, n - 1)
    transfer = st.tuples(st.sampled_from(_TRANSFERS), pe, pe,
                         st.integers(0, 2), _FOOTPRINTS, _FOOTPRINTS)
    step = st.one_of(transfer, transfer, st.tuples(
        st.just("wait"), pe, st.integers(1, 2), st.integers(0, 1)),
        st.tuples(st.just("barrier"),))
    increments = {1: 0, 2: 0}
    for s in draw(st.lists(step, min_size=10, max_size=40)):
        if s[0] == "wait":      # a wait some increment so far satisfies
            record(buf, TraceEvent(EventKind.FLAG_WAIT, pe=s[1], flag=s[2],
                                   target=max(increments[s[2]] - s[3], 1)))
        elif s[0] == "barrier":
            for cell in range(n):
                record(buf, TraceEvent(EventKind.BARRIER, pe=cell))
        else:
            (rbase, rchunk, rcount, rgap), (lbase, lchunk, lcount, lgap) = \
                s[4:]
            if s[0] in ("PUT", "GET") and s[3]:
                increments[s[3]] += 1
            record(buf, TraceEvent(
                EventKind[s[0]], pe=s[1], partner=s[2], size=8,
                recv_flag=s[3], raddr=rbase, rchunk=rchunk, rcount=rcount,
                rstep=rchunk + rgap, laddr=lbase, lchunk=lchunk,
                lcount=lcount, lstep=lchunk + lgap))
    return buf


@settings(max_examples=300, deadline=None)
@given(transfer_soups())
def test_transfer_soups(trace):
    assert_same_races(trace)


@settings(max_examples=200, deadline=None)
@given(transfer_soups())
def test_transfer_soups_with_shared_seqs(trace):
    """A loaded file's ``seq`` column need not be unique.  With every
    other row sharing its neighbour's seq, a pair of equal seqs is
    named in the object pass's order: (home, lo), then row order."""
    block = dict(trace.block())
    block["seq"] = block["seq"] // 2
    assert_same_races(TraceBuffer.from_block(trace.num_pes, trace.groups,
                                             [], block))


@pytest.mark.parametrize("wait_first", [True, False])
def test_channel_completed_on_two_cells(wait_first):
    """Cell 0's two PUTs to cell 1 are covered by waits on cells 1 and
    2; cell 2's wait proves, through the channel's FIFO, the first PUT
    delivered too, so cell 2's later PUT of the same bytes does not
    race it — and does when it comes before that wait."""
    buf = TraceBuffer(num_pes=3)
    word = dict(rchunk=8, rcount=1, rstep=8)
    record(buf, TraceEvent(EventKind.PUT, pe=0, partner=1, size=8,
                           recv_flag=1, raddr=0, **word))
    record(buf, TraceEvent(EventKind.PUT, pe=0, partner=1, size=8,
                           recv_flag=2, raddr=64, **word))
    record(buf, TraceEvent(EventKind.FLAG_WAIT, pe=1, flag=1, target=1))
    wait = TraceEvent(EventKind.FLAG_WAIT, pe=2, flag=2, target=1)
    put = TraceEvent(EventKind.PUT, pe=2, partner=1, size=8, raddr=0, **word)
    for event in (wait, put) if wait_first else (put, wait):
        record(buf, event)
    report = assert_same_races(buf)
    assert report.codes() == (set() if wait_first else {"RACE-PUT-PUT"})
