"""Cell kills: graceful degradation on, and structured timeouts off."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CommTimeoutError
from repro.faults.plan import FaultPlan, KillSpec
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.program import Group


def make(n=4, plan=None, **kw):
    kw.setdefault("memory_per_cell", 1 << 21)
    return Machine(MachineConfig(num_cells=n, fault_plan=plan, **kw))


def collective_program(ctx):
    yield from ctx.barrier()
    total = yield from ctx.gop(float(ctx.pe), "sum")
    yield from ctx.barrier()
    return total


class TestDegradation:
    def test_collectives_shrink_around_killed_cell(self):
        plan = FaultPlan(name="kill", seed=1, degrade=True,
                         kills=(KillSpec(pe=2, at_resume=1),))
        m = make(plan=plan)
        out = m.run(collective_program)
        assert m.killed == {2}
        assert out[2] is None
        # Survivors reduce over the remaining members: 0 + 1 + 3.
        assert out[0] == out[1] == out[3] == 4.0

    def test_kill_before_first_resume(self):
        plan = FaultPlan(name="kill", seed=1, degrade=True,
                         kills=(KillSpec(pe=0, at_resume=0),))
        m = make(2, plan=plan)
        out = m.run(collective_program)
        assert out == [None, 1.0]

    def test_put_toward_corpse_is_discarded_not_fatal(self):
        plan = FaultPlan(name="kill", seed=1, degrade=True,
                         kills=(KillSpec(pe=1, at_resume=0),))
        m = make(2, plan=plan)

        def program(ctx):
            a = ctx.alloc(4)
            flag = ctx.alloc_flag()
            yield  # let the kill fire first
            ctx.put(1 - ctx.pe, a, a, send_flag=flag)
            yield from ctx.flag_wait(flag, 1)
            return "done"

        out = m.run(program)
        assert out[0] == "done"
        assert m.tnet.stats.degraded_discards > 0

    def test_remote_load_from_corpse_has_no_graceful_answer(self):
        plan = FaultPlan(name="kill", seed=1, degrade=True,
                         kills=(KillSpec(pe=1, at_resume=0),))
        m = make(2, plan=plan)

        def program(ctx):
            a = ctx.alloc(4)
            yield  # let the kill fire first
            if ctx.pe == 0:
                ctx.remote_load_word(1, a, 0)

        with pytest.raises(CommTimeoutError) as err:
            m.run(program)
        assert "killed cell 1" in str(err.value)


class TestNoDegradation:
    def test_kill_surfaces_as_structured_timeout_not_hang(self):
        plan = FaultPlan(name="kill", seed=1,
                         kills=(KillSpec(pe=2, at_resume=1),))
        m = make(plan=plan)
        with pytest.raises(CommTimeoutError) as err:
            m.run(collective_program)
        message = str(err.value)
        assert "watchdog expired" in message
        assert "killed cells: [2]" in message

    def test_put_toward_corpse_exhausts_retries(self):
        plan = FaultPlan(name="kill", seed=1, timeout_rounds=1,
                         max_retries=3,
                         kills=(KillSpec(pe=1, at_resume=0),))
        m = make(2, plan=plan)

        def program(ctx):
            a = ctx.alloc(4)
            flag = ctx.alloc_flag()
            if ctx.pe == 0:
                yield  # let the kill fire first
                ctx.put(1, a, a, send_flag=flag)
                yield from ctx.flag_wait(flag, 1)

        with pytest.raises(CommTimeoutError) as err:
            m.run(program)
        message = str(err.value)
        assert "cell 1 was killed" in message
        assert m.tnet.stats.blackholed > 0


class TestBarrierReleaseOracle:
    """Barrier release against a membership scan over the members the
    plan still requires, with cells killed before and after arriving."""

    @given(degrade=st.booleans(),
           members=st.sets(st.integers(0, 5), min_size=1).map(sorted),
           events=st.lists(st.tuples(st.sampled_from(["arrive", "kill"]),
                                     st.integers(0, 5)), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_membership_scan(self, degrade, members, events):
        m = make(6, plan=FaultPlan(name="scan", seed=0, degrade=degrade))
        world = len(members) == 6
        group = m.world_group if world else Group(3, tuple(members))
        arrived, killed, generation, opened = set(), set(), 0, False

        def scan():
            nonlocal generation
            required = [pe for pe in members
                        if not (degrade and pe in killed)]
            if opened and required and all(pe in arrived
                                           for pe in required):
                arrived.clear()
                generation += 1

        for op, pe in events:
            if op == "kill":
                m.kill_cell(pe)
                if pe not in killed:
                    killed.add(pe)
                    scan()
            elif pe in members and pe not in killed and pe not in arrived:
                assert m.barrier_arrive(group, pe) == generation
                opened = True
                arrived.add(pe)
                scan()
            if opened:
                state = m._barriers[group.gid]
                assert (state.generation, state.arrived) == \
                    (generation, arrived)
        assert m.snet.episodes_completed == (generation if world else 0)
