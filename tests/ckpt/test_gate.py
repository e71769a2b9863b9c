"""The checkpoint gate: periodic captures, one-shot sites, interrupt
parking, and the watchdog's snapshot-on-deadlock dump."""

from __future__ import annotations

import pytest

from repro.apps.base import execute
from repro.ckpt import policy as ckpt_policy
from repro.ckpt.snapshot import (
    capture_snapshot,
    load_snapshot,
    restore_machine,
    resume_workload,
    save_snapshot,
)
from repro.core.errors import (
    CheckpointInterrupt,
    ConfigurationError,
    DeadlockError,
)
from repro.faults.plan import FaultPlan
from repro.hardware.msc import Command, CommandKind
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.program import CellContext
from repro.network.packet import Packet, PacketKind, StrideSpec

from .conftest import captured_sites, run_small


def stepper(ctx, sites=3):
    """``sites`` gate crossings, loop state in a checkpoint bag."""
    st = ctx.ckpt_state(it=0)
    for it in range(st.it, sites):
        yield from ctx.barrier()
        st.it = it + 1
        yield from ctx.checkpoint()
    return st.it


def arming_stepper(ctx, arm):
    """Five gate crossings; cell 0 calls ``arm(machine)`` after the
    first, at a point no cell can be at a site (between two barriers)."""
    st = ctx.ckpt_state(it=0)
    for it in range(st.it, 5):
        yield from ctx.barrier()
        if ctx.pe == 0 and it == 1:
            arm(ctx.machine)
        yield from ctx.barrier()
        st.it = it + 1
        yield from ctx.checkpoint()
    return st.it


def wedge(ctx):
    """Cell 0 waits on a flag nobody ever raises."""
    flag = ctx.alloc_flag()
    yield from ctx.barrier()
    if ctx.pe == 0:
        yield from ctx.flag_wait(flag, 1)
    yield from ctx.barrier()


def make(tmp_path=None, **kw):
    kw.setdefault("num_cells", 4)
    kw.setdefault("memory_per_cell", 1 << 21)
    if tmp_path is not None:
        kw.setdefault("checkpoint_dir", str(tmp_path))
    return Machine(MachineConfig(**kw))


class TestGate:
    def test_disarmed_gate_is_a_no_op(self):
        m = make()
        assert m.run(stepper) == [3, 3, 3, 3]
        assert m.ckpt_seq == 0
        assert m.last_snapshot is None

    def test_periodic_policy_captures_every_site(self, tmp_path):
        m = make(tmp_path, checkpoint_every=1)
        assert m.run(stepper) == [3, 3, 3, 3]
        assert m.ckpt_seq == 3
        names = sorted(p.name for p in tmp_path.iterdir()
                       if p.name.startswith("ckpt_"))
        assert names == ["ckpt_000001", "ckpt_000002", "ckpt_000003"]
        assert m.last_snapshot is not None

    def test_at_site_captures_exactly_once(self):
        m = make(checkpoint_at_site=2)
        assert m.run(stepper) == [3, 3, 3, 3]
        assert m.ckpt_seq == 1
        assert m.last_snapshot.state["ckpt"]["seq"] == 1

    def test_stop_after_capture_raises_with_snapshot_path(self, tmp_path):
        m = make(tmp_path, checkpoint_at_site=1, stop_after_checkpoint=True)
        with pytest.raises(CheckpointInterrupt) as excinfo:
            m.run(stepper)
        assert excinfo.value.snapshot_path is not None
        assert load_snapshot(excinfo.value.snapshot_path).resumable


class TestSites:
    """Which site a capture lands on, however the gate was armed."""

    def test_disarmed_site_yields_nothing_and_counts_nothing(self):
        m = make()
        ctx = CellContext(m, 0)
        for _ in range(3):
            assert list(ctx.checkpoint()) == []
        assert m._ckpt_counts == [0, 0, 0, 0]
        assert not m._gate_parked

    def test_checkpoint_every_in_config(self, tmp_path):
        m = make(tmp_path, checkpoint_every=2)
        assert m.run(stepper, 5) == [5] * 4
        assert captured_sites(m, tmp_path) == [(2, [2] * 4), (4, [4] * 4)]

    def test_ambient_policy(self, tmp_path):
        # A checkpoint policy around an application's run is the
        # config ``execute`` takes; the gate fires on its machine.
        run = execute("stepper", stepper, 4, lambda results, machine: {},
                      config=MachineConfig(memory_per_cell=1 << 21,
                                           checkpoint_every=2,
                                           checkpoint_dir=str(tmp_path)),
                      sites=5)
        assert run.results == [5] * 4
        assert captured_sites(run.machine, tmp_path) == [
            (2, [2] * 4), (4, [4] * 4)]

    def test_at_site(self):
        m = make(checkpoint_at_site=3)
        assert m.run(stepper, 5) == [5] * 4
        assert m.ckpt_seq == 1
        assert captured_sites(m) == [(3, [3] * 4)]

    def test_interrupt_after_the_first_site(self, tmp_path):
        m = make(tmp_path)
        try:
            with pytest.raises(CheckpointInterrupt):
                m.run(arming_stepper,
                      lambda machine: ckpt_policy.request_interrupt())
        finally:
            ckpt_policy.clear_interrupt()
        assert captured_sites(m, tmp_path) == [(2, [1] * 4)]

    def test_gate_armed_mid_run_without_a_directory(self):
        # No directory, no policy: sites take the disarmed path until
        # the one-shot gate is armed, and the very next one parks.
        def arm(machine):
            machine._ckpt_oneshot = True

        m = make()
        assert m.run(arming_stepper, arm) == [5] * 4
        assert m.ckpt_seq == 1
        assert captured_sites(m) == [(2, [1] * 4)]


class TestInterruptRequest:
    def test_interrupt_parks_at_next_gate_and_resume_completes(
            self, tmp_path):
        # The SIGTERM path minus the signal: the run dies at its *next*
        # gate with a final snapshot, and the resumed run completes
        # correctly.  (Its trace is not byte-golden — the extra gate
        # crossing is observable — which is why the byte-equality suite
        # in test_roundtrip.py crashes at scheduled sites instead.)
        ckpt_policy.request_interrupt()
        try:
            with pytest.raises(CheckpointInterrupt) as excinfo:
                run_small("CG", checkpoint_dir=str(tmp_path))
        finally:
            ckpt_policy.clear_interrupt()
        resumed = resume_workload(excinfo.value.snapshot_path)
        assert resumed.verified


class TestWatchdogDump:
    def test_deadlock_dumps_inspectable_hang_snapshot(self, tmp_path):
        m = make(tmp_path, num_cells=2)
        with pytest.raises(DeadlockError):
            m.run(wedge)
        (dump,) = [p for p in tmp_path.iterdir()
                   if p.name.startswith("hang_")]
        snapshot = load_snapshot(dump)
        assert not snapshot.resumable
        with pytest.raises(ConfigurationError, match="deadlock dump"):
            restore_machine(snapshot)

    def test_no_dump_without_checkpoint_dir(self):
        m = make(num_cells=2)
        with pytest.raises(DeadlockError):
            m.run(wedge)
        assert m.last_snapshot is None

    def test_in_flight_channels_restore_through_the_wire(self, tmp_path):
        # A dump keeps wedged frames; the loader refuses dumps, so the
        # header is marked resumable here to reach the T-net restore.
        # Only a wire with a fault plan holds frames: a perfect machine
        # delivers at inject.
        m = make(num_cells=4, fault_plan=FaultPlan(name="quiet", seed=5))
        for src, dst in [(2, 1), (0, 1), (2, 1), (3, 0), (0, 1), (1, 2)]:
            m.tnet.inject(Packet(kind=PacketKind.PUT, src=src, dst=dst,
                                 payload_bytes=0))
        m.tnet.deliver_next(2, 1)
        dump = capture_snapshot(m, resumable=False)
        dump.header["resumable"] = True
        restored = restore_machine(dump).tnet
        assert restored.in_flight == 5
        assert restored.injected_count - restored.delivered_count == 5
        assert restored.pending(0, 1) == 2
        restored.inject(Packet(kind=PacketKind.PUT, src=3, dst=0,
                               payload_bytes=0))
        out = restored.drain_all()
        assert [(p.serial, p.src, p.dst) for p in out] == [
            (1, 0, 1), (2, 2, 1), (3, 3, 0), (4, 0, 1), (5, 1, 2), (6, 3, 0)]
        assert restored.in_flight == 0
        assert restored.injected_count == restored.delivered_count

    def test_queued_commands_restore_and_pump_to_the_same_state(
            self, tmp_path):
        # Commands sit in the send queues (twelve on cell 0, half of
        # them spilled to DRAM) when the dump is pickled to disk.  The
        # machine rebuilt from it must pump to the same memory, flags
        # and counters as the original.
        m = make(num_cells=4)
        src = [m.alloc_array(pe, 64, "uint8") for pe in range(4)]
        dst = [m.alloc_array(pe, 64, "uint8") for pe in range(4)]
        for pe in range(4):
            src[pe].data[:] = range(pe, pe + 64)
        whole, pair = StrideSpec.contiguous(8), StrideSpec.contiguous(0)
        comb = StrideSpec(item_size=2, count=4, skip=8)
        for n in range(12):
            m.hw_cells[0].msc.issue(Command(
                kind=CommandKind.PUT, dst=1 + n % 3,
                raddr=dst[0].addr + 4 * n, laddr=src[0].addr + n,
                send_stride=whole, recv_stride=comb if n % 2 else whole,
                send_flag=64, recv_flag=68 + 4 * (n % 2)))
        m.hw_cells[2].msc.issue(Command(
            kind=CommandKind.GET, dst=3, raddr=src[3].addr + 5,
            laddr=dst[2].addr + 48, send_stride=whole, recv_stride=whole,
            recv_flag=72), system=True)
        m.hw_cells[3].msc.issue(Command(
            kind=CommandKind.GET, dst=0, raddr=0, laddr=0,
            send_stride=pair, recv_stride=pair, recv_flag=76))
        assert m.hw_cells[0].msc.user_send_queue.spilled == 6

        dump = load_snapshot(save_snapshot(
            capture_snapshot(m, resumable=False), tmp_path))
        dump.header["resumable"] = True
        restored = restore_machine(dump)
        assert ([q.state() for cell in restored.hw_cells
                 for q in cell.msc.all_queues()]
                == [q.state() for cell in m.hw_cells
                    for q in cell.msc.all_queues()])

        end = dst[0].addr + 64
        for machine in (m, restored):
            for pe in range(4):
                machine.mark_dirty(pe)
            machine.pump()
        for ours, theirs in zip(m.hw_cells, restored.hw_cells):
            assert ours.memory.read(0, end) == theirs.memory.read(0, end)
            assert vars(ours.msc.stats) == vars(theirs.msc.stats)
            assert ([q.state() for q in ours.msc.all_queues()]
                    == [q.state() for q in theirs.msc.all_queues()])
            assert ours.msc.send_dma == theirs.msc.send_dma
            assert ours.msc.recv_dma == theirs.msc.recv_dma
            assert ours.mc.flag_increments == theirs.mc.flag_increments
        assert m.hw_cells[0].mc.read_flag(64) == 12
        assert m.hw_cells[2].memory.read(dst[2].addr + 48, 8) == \
            bytes(range(8, 16))
        assert m.hw_cells[3].mc.read_flag(76) == 1
        assert m.tnet.injected_count == restored.tnet.injected_count == 16
