"""Failure-injection tests: the machine's fault paths under real
application-style loads."""

import pytest

from repro.core.errors import (
    CommunicationError,
    ConfigurationError,
    DeadlockError,
    PageFaultError,
    QueueOverflowError,
    TraceBufferOverflowError,
)
from repro.hardware.cell import HardwareCell
from repro.hardware.msc import Command, CommandKind
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.network.packet import StrideSpec
from repro.network.tnet import TNet
from repro.network.topology import TorusTopology


def make(n=4, **kw):
    kw.setdefault("memory_per_cell", 1 << 21)
    return Machine(MachineConfig(num_cells=n, **kw))


class TestProtectionFaults:
    def test_put_beyond_remote_window_faults_mid_run(self):
        """A PUT landing past the mapped remote memory raises the page
        fault the MSC+ would deliver to the OS."""
        tnet = TNet(TorusTopology(2, 1))
        a = HardwareCell.build(0, tnet, memory_bytes=1 << 20)
        b = HardwareCell.build(1, tnet, memory_bytes=1 << 16)  # small!
        a.memory.write(0, b"\x01" * 64)
        a.msc.issue(Command(
            kind=CommandKind.PUT, dst=1, raddr=(1 << 16) - 8, laddr=0,
            send_stride=StrideSpec.contiguous(64),
            recv_stride=StrideSpec.contiguous(64)))
        a.msc.pump_send()
        packet = tnet.drain_all()[0]
        with pytest.raises(PageFaultError):
            b.msc.deliver(packet)
        assert b.msc.stats.faults_pulled == 1

    def test_local_gather_fault_raises_before_injection(self):
        tnet = TNet(TorusTopology(2, 1))
        a = HardwareCell.build(0, tnet, memory_bytes=1 << 16)
        a.msc.issue(Command(
            kind=CommandKind.PUT, dst=1, raddr=0, laddr=(1 << 16) - 4,
            send_stride=StrideSpec.contiguous(64),
            recv_stride=StrideSpec.contiguous(64)))
        with pytest.raises(PageFaultError):
            a.msc.pump_send()
        assert tnet.in_flight == 0


class TestDeadlocks:
    def test_crossed_flag_waits_detected(self):
        """Two cells each waiting for the other's (never-sent) PUT."""
        m = make(2)

        def program(ctx):
            flag = ctx.alloc_flag()
            # Both cells wait before either sends: classic deadlock.
            yield from ctx.flag_wait(flag, 1)
            a = ctx.alloc(4)
            ctx.put(1 - ctx.pe, a, a, recv_flag=flag)

        with pytest.raises(DeadlockError):
            m.run(program)

    def test_mismatched_collective_order_detected(self):
        """Cell 0 reduces before the barrier, cell 1 after: neither
        collective can complete."""
        m = make(2)

        def program(ctx):
            if ctx.pe == 0:
                yield from ctx.gop(1.0)
                yield from ctx.barrier()
            else:
                yield from ctx.barrier()
                yield from ctx.gop(1.0)

        with pytest.raises(DeadlockError):
            m.run(program)

    def test_recv_without_send_detected(self):
        m = make(2)

        def program(ctx):
            if ctx.pe == 0:
                yield from ctx.recv()

        with pytest.raises(DeadlockError):
            m.run(program)

    def test_report_names_blocked_cells(self):
        m = make(3)

        def program(ctx):
            if ctx.pe != 2:
                yield from ctx.barrier()

        with pytest.raises(DeadlockError) as err:
            m.run(program)
        message = str(err.value)
        assert "2 cell(s) blocked" in message
        # Per-cell diagnosis includes the in-flight T-net packet counts.
        assert ("cell 0: waiting at barrier of group 0 (2 of 3 arrived)"
                in message)
        assert "T-net in flight: 0 inbound, 0 outbound" in message

    def test_report_names_the_receive_a_cell_waits_in(self):
        m = make(2)

        def program(ctx):
            if ctx.pe == 0:
                yield from ctx.recv(src=1, context=5)
            yield from ctx.barrier()

        with pytest.raises(DeadlockError) as err:
            m.run(program)
        message = str(err.value)
        assert "cell 0: waiting in RECEIVE from cell 1 (context=5)" in message
        assert ("cell 1: waiting at barrier of group 0 (1 of 2 arrived)"
                in message)

    def test_report_names_the_register_a_cell_loads(self):
        m = make(2)

        def program(ctx):
            if ctx.pe == 1:
                yield from ctx.creg_load(3)

        with pytest.raises(DeadlockError) as err:
            m.run(program)
        assert ("cell 1: waiting to load communication register 3"
                in str(err.value))

    def test_report_counts_reduction_contributions(self):
        m = make(3)

        def program(ctx):
            if ctx.pe:
                yield from ctx.gop(1.0)

        with pytest.raises(DeadlockError) as err:
            m.run(program)
        assert ("cell 1: waiting in reduction of group 0 "
                "(2 of 3 contributed)" in str(err.value))

    def test_report_names_pending_flag_wait_targets(self):
        m = make(2)

        def program(ctx):
            flag = ctx.alloc_flag()
            # Nobody ever PUTs with this flag: both cells hang waiting.
            yield from ctx.flag_wait(flag, 1)

        with pytest.raises(DeadlockError) as err:
            m.run(program)
        message = str(err.value)
        assert "waiting on flag" in message
        assert "(0/1)" in message


class TestResourceExhaustion:
    def test_trace_overflow_mid_application(self):
        m = make(2, trace_capacity=50)

        def program(ctx):
            a = ctx.alloc(4)
            for _ in range(100):
                ctx.put(1 - ctx.pe, a, a)
            yield from ctx.barrier()

        with pytest.raises(TraceBufferOverflowError):
            m.run(program)

    def test_heap_exhaustion_reports_cell(self):
        m = make(2)

        def program(ctx):
            ctx.alloc(1 << 20)   # 8 MB of float64 in a 2 MB cell

        with pytest.raises(ConfigurationError) as err:
            m.run(program)
        assert "out of memory" in str(err.value)

    def test_flag_slots_exhaust(self):
        from repro.core.flags import MAX_FLAGS_PER_PE
        m = make(1)

        def program(ctx):
            for _ in range(MAX_FLAGS_PER_PE):   # 2 already used
                ctx.alloc_flag()

        with pytest.raises(ConfigurationError):
            m.run(program)

    def test_spill_cap_enforced(self):
        from repro.hardware.queues import CommandQueue
        queue = CommandQueue("capped", spill_buffer_words=8,
                             max_spill_buffers=2)
        with pytest.raises(QueueOverflowError):
            for i in range(100):
                queue.push(i)


class TestMisuse:
    def test_put_to_nonexistent_cell(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(4)
            ctx.put(7, a, a)

        with pytest.raises(CommunicationError):
            m.run(program)

    def test_group_member_mismatch(self):
        m = make(4)

        def program(ctx):
            group = ctx.make_group([0, 1])
            # Cell 2 tries to reduce with a group it is not in.
            if ctx.pe == 2:
                yield from ctx.gop(1.0, group=group)

        with pytest.raises(CommunicationError):
            m.run(program)

    def test_negative_transfer_count(self):
        m = make(2)

        def program(ctx):
            a = ctx.alloc(4)
            ctx.put(1, a, a, count=-1)

        with pytest.raises(CommunicationError):
            m.run(program)


class TestRecoveryAfterFailure:
    def test_fresh_machine_unaffected_by_previous_failure(self):
        m1 = make(2)

        def bad(ctx):
            flag = ctx.alloc_flag()
            yield from ctx.flag_wait(flag, 1)

        with pytest.raises(DeadlockError):
            m1.run(bad)

        m2 = make(2)

        def good(ctx):
            yield from ctx.barrier()
            return ctx.pe

        assert m2.run(good) == [0, 1]
