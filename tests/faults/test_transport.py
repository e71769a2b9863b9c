"""Reliable delivery end to end: every fault class on real machines."""

import pytest

from repro.core.errors import CommTimeoutError
from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.events import EventKind
from tests.trace.views import all_events


def make(n=4, plan=None, **kw):
    kw.setdefault("memory_per_cell", 1 << 21)
    return Machine(MachineConfig(num_cells=n, fault_plan=plan, **kw))


def ring_exchange(ctx):
    """Each cell PUTs its vector to its right neighbour, flag-synchronized,
    then everyone reduces the received sum."""
    n = ctx.num_cells
    mine = ctx.alloc(8)
    inbox = ctx.alloc(8)
    flag = ctx.alloc_flag()
    mine.data[:] = float(ctx.pe + 1)
    yield from ctx.barrier()
    ctx.put((ctx.pe + 1) % n, inbox, mine, recv_flag=flag)
    yield from ctx.flag_wait(flag, 1)
    total = yield from ctx.gop(float(inbox.data.sum()), "sum")
    yield from ctx.barrier()
    return total


EXPECTED = [8.0 * (1 + 2 + 3 + 4)] * 4


class TestRecoveryPerFaultClass:
    @pytest.mark.parametrize("plan", [
        FaultPlan(name="drop", seed=11, drop_rate=0.3),
        FaultPlan(name="dup", seed=12, dup_rate=0.4),
        FaultPlan(name="corrupt", seed=13, corrupt_rate=0.3),
        FaultPlan(name="delay", seed=14, delay_rate=0.5,
                  delay_max_rounds=6),
        FaultPlan(name="storm", seed=15, drop_rate=0.15, dup_rate=0.15,
                  corrupt_rate=0.15, delay_rate=0.25),
    ], ids=lambda p: p.name)
    def test_results_identical_to_perfect_run(self, plan):
        assert make().run(ring_exchange) == EXPECTED
        m = make(plan=plan)
        assert m.run(ring_exchange) == EXPECTED
        # Reliable quiescence: every frame acknowledged, none in flight.
        assert m.transport.idle()
        assert m.tnet.in_flight == 0

    def test_flags_count_exactly_once_under_duplication(self):
        plan = FaultPlan(name="dup", seed=3, dup_rate=1.0)
        m = make(plan=plan)

        def program(ctx):
            inbox = ctx.alloc(4)
            flag = ctx.alloc_flag()
            if ctx.pe == 0:
                src = ctx.alloc(4)
                ctx.put(1, inbox, src, recv_flag=flag)
            yield from ctx.barrier()
            if ctx.pe == 1:
                return ctx.hw.mc.read_flag(flag.addr)
            return None

        assert m.run(program)[1] == 1  # not 2: the duplicate was dropped
        assert m.tnet.stats.duplicated > 0
        assert m.tnet.stats.dup_discarded > 0


class TestRetryBudget:
    def test_total_loss_raises_structured_timeout(self):
        plan = FaultPlan(name="dead", seed=5, drop_rate=1.0,
                         timeout_rounds=1, max_retries=3)
        m = make(2, plan=plan)

        def program(ctx):
            a = ctx.alloc(4)
            flag = ctx.alloc_flag()
            if ctx.pe == 0:
                ctx.put(1, a, a, recv_flag=flag)
            yield from ctx.barrier()

        with pytest.raises(CommTimeoutError) as err:
            m.run(program)
        message = str(err.value)
        assert "gave up" in message
        assert "0 -> 1" in message
        # The blocked-cell dump rides along for diagnosis.
        assert "in flight" in message

    def test_retry_and_timeout_events_recorded(self):
        plan = FaultPlan(name="drop", seed=11, drop_rate=0.3,
                         timeout_rounds=1)
        m = make(plan=plan)
        m.run(ring_exchange)
        retries = m.trace.count(EventKind.RETRY)
        timeouts = m.trace.count(EventKind.TIMEOUT)
        assert retries == m.tnet.stats.retries > 0
        assert timeouts > 0

    def test_counters_flow_into_statistics(self):
        from repro.trace.stats import collect_statistics
        plan = FaultPlan(name="drop", seed=11, drop_rate=0.3,
                         timeout_rounds=1)
        m = make(plan=plan)
        m.run(ring_exchange)
        stats = collect_statistics(m.trace)
        assert stats.retries > 0
        assert stats.timeouts > 0
        # Table 3 columns are untouched by the robustness counters:
        # retransmissions happen below the probe layer, so the PUT
        # column matches the perfect machine exactly.
        m2 = make()
        m2.run(ring_exchange)
        perfect = collect_statistics(m2.trace)
        assert stats.put_per_pe == perfect.put_per_pe


class TestQueuePressure:
    def test_squeezed_queues_still_verify(self):
        # 16 words = two plain commands; every queue runs nearly full.
        plan = FaultPlan(name="squeeze", seed=6, queue_capacity_words=16,
                         drop_rate=0.1, delay_rate=0.2)
        m = make(plan=plan)
        assert m.run(ring_exchange) == EXPECTED
        assert m.hw_cells[0].msc.user_send_queue.capacity_words == 16

    def test_spills_become_trace_events(self):
        plan = FaultPlan(name="squeeze", seed=6, queue_capacity_words=16,
                         spill_buffer_words=64)
        m = make(plan=plan)
        q = m.hw_cells[0].msc.user_send_queue
        assert q.capacity_words == 16
        assert q.spill_buffer_words == 64
        # Three 8-word commands against a 16-word queue: the third
        # streams past the hardware queue into DRAM.
        for i in range(3):
            q.push(("cmd", i), 8)
        assert q.spilled == 1
        assert m.trace.count(EventKind.SPILL) == 1
        (ev,) = [e for e in all_events(m.trace)
                 if e.kind == EventKind.SPILL]
        assert ev.pe == 0
        assert ev.size == 8  # words spilled ride in the size field
