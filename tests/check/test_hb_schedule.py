"""The happens-before replay visits only cells that can move, in the
order of a scheduler that polls every cell in every sweep.

``SweepReplay`` is that scheduler (the ``run`` loop as it shipped
before blocked cells registered on the event they wait for).  Clocks,
flag bookkeeping and — because stalls are force-released in processing
order — the list of diagnostics must be identical on well-formed
traces, on the seeded-bug fixtures and on generated event soups that
stall in every way the checker reports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.workloads import workload
from repro.check.hb import HBResult, _Replay
from repro.check.runner import _load_fixture, buggy_dir, repo_root
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent


class SweepReplay(_Replay):
    """Reference: poll every cell until a whole sweep moves nothing."""

    def run(self):
        while True:
            progress = False
            for pe in range(self.num_pes):
                self._cur = pe
                progress = self._advance(pe) or progress
            self._cur = self.num_pes
            if all(self.blocked[pe] is None
                   and self.idx[pe] >= len(self.events[pe])
                   for pe in range(self.num_pes)):
                break
            if not progress:
                self._resolve_stall()
        return HBResult(
            num_pes=self.num_pes, events=self.events, clock=self.clock,
            diagnostics=self.diagnostics, increments=self.increments,
            increment_index=self.inc_index, covering=self.covering)


def outcome(replay_class, trace):
    hb = replay_class(trace).run()
    return {
        "clock": hb.clock,
        "diagnostics": hb.diagnostics,
        "increments": hb.flag_increments,
        "covering": hb._covering,
    }


def assert_same_replay(trace):
    assert outcome(_Replay, trace) == outcome(SweepReplay, trace)


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
            buf.record(TraceEvent(EventKind.PUT, pe=cell, partner=s[2],
                                  size=8, send_flag=s[3], recv_flag=s[4]))
        elif name == "wait":
            buf.record(TraceEvent(EventKind.FLAG_WAIT, pe=cell, flag=s[2],
                                  target=s[3]))
        elif name in ("barrier", "gop", "vgop"):
            if cell in buf.groups.members(s[2]):
                buf.record(TraceEvent(EventKind[name.upper()], pe=cell,
                                      group=s[2], size=8))
        elif name == "send":
            buf.record(TraceEvent(EventKind.SEND, pe=cell, partner=s[2],
                                  msg_id=s[3]))
        elif name == "recv":
            buf.record(TraceEvent(EventKind.RECV, pe=cell, msg_id=s[2]))
        else:
            buf.record(TraceEvent(EventKind.COMPUTE, pe=cell, work=1.0))
    return buf


@settings(max_examples=300, deadline=None)
@given(soups())
def test_soups_replay_as_under_full_sweeps(trace):
    assert_same_replay(trace)


def test_buggy_fixtures_replay_as_under_full_sweeps():
    root = repo_root()
    fixtures = sorted(p for p in buggy_dir(root).glob("*.py")
                      if not p.name.startswith("_"))
    assert fixtures
    for path in fixtures:
        assert_same_replay(_load_fixture(path).build_trace())


def test_apps_replay_as_under_full_sweeps():
    for app, sizes in (
            ("RingShift", dict(num_cells=16, hops=48)),
            ("CG", dict(num_cells=8, n=120, outer=1, inner=5)),
            ("TC no st", dict(num_cells=4, n=33, iters=1,
                              use_stride=False)),
            ("MatMul", dict(num_cells=8, n=32))):
        assert_same_replay(workload(app).runner(**sizes).trace)


def test_blocking_chain_visits_follow_the_events():
    """RingShift at 1 024 cells moves one cell per hop: polling made
    262 144 visits for 2 559 events, the wake rule makes 3 325."""
    trace = workload("RingShift").runner(num_cells=1024, hops=256).trace
    visits = 0

    class Counting(_Replay):
        def _advance(self, pe):
            nonlocal visits
            visits += 1
            return super()._advance(pe)

    hb = Counting(trace).run()
    assert not hb.diagnostics
    assert visits <= 4 * trace.total_events, visits
