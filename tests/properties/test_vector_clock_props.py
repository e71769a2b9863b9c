"""Property-based tests for the checker's happens-before machinery.

Random well-synchronized schedules (barriers plus PUT/flag-wait pairs
over disjoint regions) must yield a transitive clock order, totally
ordered across barriers, with zero diagnostics; random *unsynchronized*
writer sets must produce exactly the conflicting pairs, no matter how
the schedule interleaves them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.hb import build_happens_before, hb_report
from repro.check.races import race_report
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.events import EventKind

K = 4  # elements per transfer


def schedules(max_pes=4, max_rounds=6):
    """Strategy: (num_pes, rounds) where each round is a global barrier
    or a PUT from s to d immediately awaited by d."""

    def rounds_for(n):
        round_ = st.one_of(
            st.just(("barrier",)),
            st.tuples(
                st.just("put"),
                st.integers(0, n - 1),
                st.integers(0, n - 1),
            ).filter(lambda t: t[1] != t[2]),
        )
        return st.tuples(
            st.just(n), st.lists(round_, min_size=1, max_size=max_rounds)
        )

    return st.integers(2, max_pes).flatmap(rounds_for)


def run_schedule(n, rounds):
    """Execute a synchronized schedule; every PUT from cell ``s`` lands
    in its own region ``[s*K, (s+1)*K)`` and is waited for at once."""
    targets = {}
    script = []
    for r in rounds:
        if r[0] == "put":
            s, d = r[1], r[2]
            targets[(s, d)] = targets.get((s, d), 0) + 1
            script.append(("put", s, d, targets[(s, d)]))
        else:
            script.append(("barrier",))

    def program(ctx):
        dest = ctx.alloc(ctx.num_cells * K)
        src = ctx.alloc(K)
        flags = [ctx.alloc_flag() for _ in range(ctx.num_cells)]
        yield from ctx.barrier()
        for step in script:
            if step[0] == "barrier":
                yield from ctx.barrier()
            else:
                _, s, d, target = step
                if ctx.pe == s:
                    ctx.put(d, dest, src, count=K, dest_offset=s * K,
                            recv_flag=flags[s])
                if ctx.pe == d:
                    yield from ctx.flag_wait(flags[s], target)
        yield from ctx.barrier()

    machine = Machine(MachineConfig(
        num_cells=n, memory_per_cell=1 << 20, sanitize=True))
    machine.run(program)
    return machine.trace


def sample_keys(trace, limit=24):
    keys = [
        (pe, i)
        for pe in range(trace.num_pes)
        for i in range(len(trace.events_for(pe)))
    ]
    stride = max(1, len(keys) // limit)
    return keys[::stride]


COLLECTIVE_KINDS = {EventKind.BARRIER, EventKind.GOP, EventKind.VGOP}


@settings(max_examples=25, deadline=None)
@given(schedules())
def test_happens_before_is_transitive_and_irreflexive(sched):
    n, rounds = sched
    trace = run_schedule(n, rounds)
    hb = build_happens_before(trace)
    keys = sample_keys(trace)
    for a in keys:
        assert not hb.happens_before(a, a)
        for b in keys:
            if not hb.happens_before(a, b):
                continue
            if hb.happens_before(b, a):
                # Mutual ordering only between the merged events of one
                # collective rendezvous — everywhere else HB is strict.
                assert trace.events_for(a[0])[a[1]].kind in COLLECTIVE_KINDS
                assert trace.events_for(b[0])[b[1]].kind in COLLECTIVE_KINDS
            for c in keys:
                if not hb.happens_before(b, c):
                    continue
                if c == a or hb.happens_before(c, a):
                    continue  # a, b, c form one rendezvous cycle
                assert hb.happens_before(a, c)  # transitive


@settings(max_examples=25, deadline=None)
@given(schedules())
def test_barriers_totally_order_the_phases(sched):
    n, rounds = sched
    trace = run_schedule(n, rounds)
    hb = build_happens_before(trace)
    events = [trace.events_for(pe) for pe in range(trace.num_pes)]
    barrier_idx = {
        pe: [i for i, ev in enumerate(events[pe])
             if ev.kind is EventKind.BARRIER]
        for pe in range(hb.num_pes)
    }
    occurrences = min(len(v) for v in barrier_idx.values())
    for t in range(occurrences):
        for i in range(n):
            for j in range(n):
                after = barrier_idx[j][t] + 1
                if after >= len(events[j]):
                    continue
                # Everything up to i's t-th barrier precedes everything
                # after j's t-th barrier — barriers are global fences.
                assert hb.happens_before(
                    (i, barrier_idx[i][t]), (j, after))
                assert hb.happens_before((i, 0), (j, after))


@settings(max_examples=25, deadline=None)
@given(schedules())
def test_synchronized_schedules_check_clean(sched):
    n, rounds = sched
    trace = run_schedule(n, rounds)
    hb, sync_report = hb_report(trace, "sched")
    assert sync_report.clean, sync_report.render()
    races = race_report(hb, "sched")
    assert races.clean, races.render()


@settings(max_examples=25, deadline=None)
@given(
    writers=st.sets(st.integers(1, 3), min_size=0, max_size=3),
    order_seed=st.randoms(use_true_random=False),
    phase_gaps=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_race_verdict_invariant_under_reordering(writers, order_seed,
                                                 phase_gaps):
    """Unwaited PUTs to the same region race pairwise — and the set of
    racing pairs must not depend on the order or barrier phase in which
    the schedule happens to issue them."""
    order = sorted(writers)
    order_seed.shuffle(order)

    def program(ctx):
        victim = ctx.alloc(K)
        src = ctx.alloc(K)
        flag = ctx.alloc_flag()
        yield from ctx.barrier()
        for w, gap in zip(order, phase_gaps):
            if ctx.pe == w:
                ctx.put(0, victim, src, count=K, recv_flag=flag)
            if gap:
                yield from ctx.barrier()
        yield from ctx.barrier()

    machine = Machine(MachineConfig(
        num_cells=4, memory_per_cell=1 << 20, sanitize=True))
    machine.run(program)
    hb = build_happens_before(machine.trace)
    report = race_report(hb, "writers")
    found = {
        frozenset((d.events[0].pe, d.events[1].pe))
        for d in report.diagnostics
    }
    expected = {
        frozenset((a, b))
        for a in writers for b in writers if a < b
    }
    assert found == expected
