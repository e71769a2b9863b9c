"""The checker's happens-before — sync edges read from the trace's
columns and one pass over the sync rows — equals the sweep replay it
replaced, ``reference_hb.py``.

Diagnostics (sorted: the pass finds them in another order), flag
increments, covering waits and ``happens_before`` must agree on
generated event soups that stall in every way the checker reports, on
the seeded-bug fixtures, on shipped apps and on generated programs
recorded with the sanitizer.  Every pair of events is compared on soups
and fixtures, a seeded sample of pairs on the larger traces.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.workloads import workload
from repro.check import hb as hb_module
from repro.check.hb import build_happens_before
from repro.check.runner import _load_fixture, buggy_dir, check_trace, \
    repo_root
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent
from tests.check.reference_hb import reference_happens_before
from tests.programs import MEMORY, programs, round_program
from tests.trace.views import record


def assert_same_hb(trace, pairs=None):
    """Production ≡ reference on ``trace``; ``pairs`` (default: all) is
    how many sampled event pairs to compare the order of."""
    hb = build_happens_before(trace)
    ref = reference_happens_before(trace)
    key = lambda d: d.sort_key()   # noqa: E731
    assert sorted(hb.diagnostics, key=key) == sorted(ref.diagnostics, key=key)
    assert hb.flag_increments == ref.flag_increments
    # Covering waits are listed in issue order, the sweep's in the order
    # it released them: the same where one cell waits on an instance, as
    # on every recorded trace, where each cell waits on its own flags.
    waiters = {}
    for evs in ref.events:
        for ev in evs:
            if ev.kind is EventKind.FLAG_WAIT:
                waiters.setdefault(ev.flag, set()).add(ev.pe)
    for iid, incs in ref.flag_increments.items():
        for k, inc in enumerate(incs, 1):
            if len(waiters.get(iid, ())) <= 1:
                assert hb.covering_wait(iid, k) == ref.covering_wait(iid, k)
            if ref.increment_index(iid, inc) == k:
                assert hb.increment_index(iid, inc) == k
    keys = [(pe, i) for pe in range(trace.num_pes)
            for i in range(len(ref.events[pe]))]
    if pairs is None:
        pairs = [(a, b) for a in keys for b in keys]
    elif keys:
        rng = random.Random(0)
        pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(pairs)]
    for a, b in pairs:
        assert hb.happens_before(a, b) == ref.happens_before(a, b), (a, b)
    return waiters


@st.composite
def soups(draw):
    """Unsynchronized event streams: waits nobody satisfies, collectives
    some members skip, receives without sends, mixed reduction kinds."""
    n = draw(st.integers(2, 6))
    buf = TraceBuffer(num_pes=n)
    assert buf.groups is not None
    evens = buf.groups.intern(tuple(range(0, n, 2)))
    pe = st.integers(0, n - 1)
    flag = st.integers(1, 5)
    group = st.sampled_from([0, evens])
    step = st.one_of(
        st.tuples(st.just("put"), pe, pe, st.integers(0, 5),
                  st.integers(0, 5)),
        st.tuples(st.just("wait"), pe, flag, st.integers(0, 3)),
        st.tuples(st.sampled_from(["barrier", "gop", "vgop"]), pe, group),
        st.tuples(st.just("send"), pe, pe, st.integers(1, 8)),
        st.tuples(st.just("recv"), pe, st.integers(1, 9)),
        st.tuples(st.just("compute"), pe),
    )
    for s in draw(st.lists(step, min_size=1, max_size=50)):
        name, cell = s[0], s[1]
        if name == "put":
            record(buf, TraceEvent(EventKind.PUT, pe=cell, partner=s[2],
                                   size=8, send_flag=s[3], recv_flag=s[4]))
        elif name == "wait":
            record(buf, TraceEvent(EventKind.FLAG_WAIT, pe=cell, flag=s[2],
                                   target=s[3]))
        elif name in ("barrier", "gop", "vgop"):
            if cell in buf.groups.members(s[2]):
                record(buf, TraceEvent(EventKind[name.upper()], pe=cell,
                                       group=s[2], size=8))
        elif name == "send":
            record(buf, TraceEvent(EventKind.SEND, pe=cell, partner=s[2],
                                   msg_id=s[3]))
        elif name == "recv":
            record(buf, TraceEvent(EventKind.RECV, pe=cell, msg_id=s[2]))
        else:
            record(buf, TraceEvent(EventKind.COMPUTE, pe=cell, work=1.0))
    return buf


@settings(max_examples=300, deadline=None)
@given(soups())
def test_soups_replay_as_under_full_sweeps(trace):
    assert_same_hb(trace)


def test_buggy_fixtures_replay_as_under_full_sweeps():
    root = repo_root()
    fixtures = sorted(p for p in buggy_dir(root).glob("*.py")
                      if not p.name.startswith("_"))
    assert fixtures
    for path in fixtures:
        waiters = assert_same_hb(_load_fixture(path).build_trace())
        assert all(len(cells) == 1 for cells in waiters.values())


def test_apps_replay_as_under_full_sweeps():
    for app, sizes in (
            ("RingShift", dict(num_cells=16, hops=48)),
            ("CG", dict(num_cells=8, n=120, outer=1, inner=5)),
            ("TC no st", dict(num_cells=4, n=33, iters=1,
                              use_stride=False)),
            ("MatMul", dict(num_cells=8, n=32))):
        waiters = assert_same_hb(workload(app).runner(**sizes).trace,
                                 pairs=20_000)
        assert all(len(cells) == 1 for cells in waiters.values())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=programs, cells=st.integers(2, 5))
def test_generated_programs_replay_as_under_full_sweeps(steps, cells):
    """Recorded with the sanitizer.  The full check finds exactly the
    one race the vocabulary has: a ``batch_overlap`` PUT sends on, with
    no wait between, what its batch's GET landed — one ``RACE-PUT-GET``
    per cell and step between that cell's own GET and PUT."""
    machine = Machine(MachineConfig(num_cells=cells, memory_per_cell=MEMORY,
                                    sanitize=True))
    machine.run(lambda ctx: round_program(ctx, steps))
    waiters = assert_same_hb(machine.trace, pairs=5_000)
    assert all(len(cells) == 1 for cells in waiters.values())
    report = check_trace(machine.trace, "generated")
    overlaps = sum(op == "batch_overlap" for op, _ in steps)
    assert len(report.diagnostics) == cells * overlaps, report.render()
    for diag in report.diagnostics:
        assert diag.code == "RACE-PUT-GET", report.render()
        get, put = diag.events
        assert (get.kind, put.kind) == ("GET", "PUT")
        assert get.pe == put.pe == diag.home


def test_blocking_chain_visits_follow_the_events(monkeypatch):
    """RingShift at 1 024 cells moves one cell per hop: the pass takes
    up each sync node once (a stall force-releases at most one more)."""
    trace = workload("RingShift").runner(num_cells=1024, hops=256).trace
    counts = {"visits": 0, "stalls": 0}
    complete, stall = hb_module._SyncPass._complete, \
        hb_module._SyncPass._stall

    def counted_complete(self, *args):
        counts["visits"] += 1
        return complete(self, *args)

    def counted_stall(self, *args):
        counts["stalls"] += 1
        return stall(self, *args)

    monkeypatch.setattr(hb_module._SyncPass, "_complete", counted_complete)
    monkeypatch.setattr(hb_module._SyncPass, "_stall", counted_stall)
    hb = build_happens_before(trace)
    assert not hb.diagnostics
    block = trace.block()
    sync_rows = sum(trace.count(kind) for kind in (
        EventKind.FLAG_WAIT, EventKind.BARRIER, EventKind.GOP,
        EventKind.VGOP, EventKind.RECV))
    assert counts["visits"] <= sync_rows + counts["stalls"], counts
    assert counts["visits"] < len(block["kind"])
